"""Hierarchical timer wheel for cache expirations.

A million-user cache cannot afford ``purge_expired`` to scan every
entry (the seed's behavior): purge cost must track the number of
entries that *actually expired*, not the population size.  The wheel
buckets items by expiry tick across a hierarchy of levels — level
``l`` has slots ``2**bits`` ticks wide raised to the ``l``-th power —
so insertion is O(1), and :meth:`advance` visits only the buckets the
clock has passed.  Items sitting in a coarse (higher-level) bucket
whose window the clock just entered are *cascaded* down to finer
levels; each item cascades at most ``levels`` times over its life, so
purging stays amortized O(1) per item plus a heap pop per retired
bucket.

The wheel is deliberately decoupled from cache semantics: it stores
opaque ``(expires_at, item)`` pairs and never decides liveness.
:meth:`advance` returns *candidates* — items whose expiry tick has
passed — and the caller revalidates each one (an entry may have been
overwritten or already evicted since it was scheduled).  Stale
schedules therefore cost one skipped candidate, never a wrong
eviction, which is what makes the wheel safe to run alongside
lookup-time eviction and LRU bounds.  A stale schedule also keeps its
item alive until its tick, so callers file small keys, not the objects
they expire: the cache files ``(user, exact_key, expires_at)``.
"""

from __future__ import annotations

import heapq
from typing import Any, Dict, List, Tuple

#: default wheel resolution: entries expiring within the same half
#: second share a level-0 bucket
DEFAULT_TICK = 0.5


class TimerWheel:
    """Hierarchical timer wheel over absolute expiry ticks.

    ``tick`` is the level-0 resolution in seconds; ``bits`` sets the
    slots per level (``2**bits``); ``levels`` bounds the hierarchy —
    items beyond the top level's horizon just land in the top level
    and cascade down as the clock approaches.
    """

    def __init__(self, tick: float = DEFAULT_TICK, bits: int = 8, levels: int = 4) -> None:
        if tick <= 0:
            raise ValueError("tick must be positive")
        self.tick = tick
        self.bits = bits
        self.levels = levels
        #: per level: absolute bucket index -> [(expires_at, item), ...]
        self._buckets: List[Dict[int, List[Tuple[float, Any]]]] = [
            {} for _ in range(levels)
        ]
        #: per level: min-heap of bucket indices with a live bucket
        self._heaps: List[List[int]] = [[] for _ in range(levels)]
        self._current = 0  # last tick advance() has processed up to
        self.scheduled = 0
        self.cascades = 0

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return sum(
            len(bucket) for level in self._buckets for bucket in level.values()
        )

    def _level_for(self, expiry_tick: int) -> int:
        delta = expiry_tick - self._current
        span = 1 << self.bits
        for level in range(self.levels):
            if delta < span:
                return level
            span <<= self.bits
        return self.levels - 1

    def _insert(self, expiry_tick: int, expires_at: float, item: Any) -> None:
        level = self._level_for(expiry_tick)
        index = expiry_tick >> (self.bits * level)
        bucket = self._buckets[level].get(index)
        if bucket is None:
            self._buckets[level][index] = [(expires_at, item)]
            heapq.heappush(self._heaps[level], index)
        else:
            bucket.append((expires_at, item))

    def schedule(self, expires_at: float, item: Any) -> None:
        """File ``item`` to surface once ``expires_at`` has passed."""
        self.scheduled += 1
        self._insert(int(expires_at / self.tick), expires_at, item)

    # ------------------------------------------------------------------
    def advance(self, now: float) -> List[Any]:
        """Move the clock to ``now``; return expiry *candidates*.

        Only buckets whose window the clock has passed are touched.
        Level-0's boundary bucket (the one covering ``now`` itself) is
        scanned item-by-item so ``now == expires_at`` expires exactly
        on time; unexpired residents stay filed.  Higher-level
        boundary buckets cascade their items to finer levels.
        """
        current = int(now / self.tick)
        if current < self._current:
            return []
        self._current = current
        expired: List[Any] = []
        for level in range(self.levels):
            level_current = current >> (self.bits * level)
            heap = self._heaps[level]
            buckets = self._buckets[level]
            while heap and heap[0] <= level_current:
                index = heapq.heappop(heap)
                bucket = buckets.pop(index, None)
                if bucket is None:
                    continue
                if index < level_current:
                    # the whole window is in the past: every resident's
                    # expiry tick precedes ``current``
                    expired.extend(item for _, item in bucket)
                elif level == 0:
                    # boundary bucket: expiries land inside this very
                    # tick, so split item-by-item and keep the rest
                    keep = []
                    for expires_at, item in bucket:
                        if now >= expires_at:
                            expired.append(item)
                        else:
                            keep.append((expires_at, item))
                    if keep:
                        buckets[index] = keep
                        heapq.heappush(heap, index)
                    break  # heap top == level_current: nothing older left
                else:
                    # entering a coarse window: refile residents at a
                    # finer level (or collect ones already past due)
                    for expires_at, item in bucket:
                        expiry_tick = int(expires_at / self.tick)
                        if expiry_tick < current:
                            expired.append(item)
                        elif expiry_tick == current and now >= expires_at:
                            expired.append(item)
                        else:
                            self.cascades += 1
                            self._insert(expiry_tick, expires_at, item)
        return expired
