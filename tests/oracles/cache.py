"""Flat-table prefetch cache: the seed's store, kept as the oracle.

One dict keyed by ``(user, exact_key)``; lookups hit it directly,
``purge_expired`` scans every entry, and per-user views filter the
whole table.  No LRU bounds and no adaptive budgets — the sharded
:class:`~repro.proxy.cache.PrefetchCache` must match it on every
unbounded observable (``tests/test_proxy_cache_scale.py``).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.httpmsg.message import Request, Response
from repro.proxy.cache import CacheEntry


class FlatPrefetchCache:
    """Per-user exact-match response cache over one flat table."""

    def __init__(self) -> None:
        self._entries: Dict[Tuple[str, str], CacheEntry] = {}
        self.hits: Dict[str, int] = {}
        self.misses: Dict[str, int] = {}
        self.expired_evictions = 0
        self.stored = 0
        self.wasted = 0
        self.wasted_by_site: Dict[str, int] = {}
        self.served_by_site: Dict[str, int] = {}
        self._hit_listeners: List[Callable[[str], None]] = []

    def add_hit_listener(self, listener: Callable[[str], None]) -> None:
        self._hit_listeners.append(listener)

    def put(
        self,
        user: str,
        request: Request,
        response: Response,
        site: str,
        now: float,
        ttl: float,
    ) -> None:
        key = (user, request.exact_key())
        previous = self._entries.get(key)
        if previous is not None:
            self._note_wasted(previous)
        self._entries[key] = CacheEntry(response, site, now, now + ttl)
        self.stored += 1

    def _note_wasted(self, entry: CacheEntry) -> None:
        if entry.served:
            return
        self.wasted += 1
        self.wasted_by_site[entry.site] = self.wasted_by_site.get(entry.site, 0) + 1

    def mark_served(self, entry: CacheEntry) -> None:
        if not entry.served:
            entry.served = True
            self.served_by_site[entry.site] = self.served_by_site.get(entry.site, 0) + 1

    def lookup(
        self, user: str, request: Request, now: float
    ) -> Tuple[Optional[CacheEntry], str]:
        key = (user, request.exact_key())
        entry = self._entries.get(key)
        if entry is None:
            return None, "miss_absent"
        if entry.expired(now):
            self._note_wasted(self._entries.pop(key))
            self.expired_evictions += 1
            return None, "miss_expired"
        return entry, "hit"

    def get(self, user: str, request: Request, now: float) -> Optional[CacheEntry]:
        return self.lookup(user, request, now)[0]

    def record_hit(self, site: str) -> None:
        self.hits[site] = self.hits.get(site, 0) + 1
        for listener in self._hit_listeners:
            listener(site)

    def record_miss(self, site: str) -> None:
        self.misses[site] = self.misses.get(site, 0) + 1

    def contains_fresh(self, user: str, request: Request, now: float) -> bool:
        entry = self._entries.get((user, request.exact_key()))
        return entry is not None and not entry.expired(now)

    def hit_rate(self, site: str) -> float:
        hits = self.hits.get(site, 0)
        misses = self.misses.get(site, 0)
        if hits + misses == 0:
            return 0.0
        return hits / float(hits + misses)

    def purge_expired(self, now: float) -> int:
        """Full-table scan: evict every expired entry."""
        stale = [key for key, entry in self._entries.items() if entry.expired(now)]
        for key in stale:
            self._note_wasted(self._entries.pop(key))
        self.expired_evictions += len(stale)
        return len(stale)

    def entries_for_user(self, user: str) -> List[CacheEntry]:
        return [entry for (u, _), entry in self._entries.items() if u == user]

    @property
    def user_count(self) -> int:
        return len({user for user, _ in self._entries})

    def __len__(self) -> int:
        return len(self._entries)
