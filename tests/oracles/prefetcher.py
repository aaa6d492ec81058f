"""Rebuild-everything prefetch drain: the seed's scheduler, kept as the oracle.

The seed kept one heap of ``(-priority, seq, ready)`` and, on every
drain, re-ranked the *whole* waiting queue from the current §5 signals
before popping — O(W) per drain.  :class:`RebuildDrainPrefetcher`
swaps exactly that queue in for the production lazy drain; every gate,
fetch and store path is inherited unchanged, so any difference in
issue order is the drain's (``tests/test_prefetcher_drain_equiv.py``).
"""

from __future__ import annotations

import heapq
from typing import List, Tuple

from repro.proxy.learning import ReadyPrefetch
from repro.proxy.prefetcher import Prefetcher


class RebuildDrainPrefetcher(Prefetcher):
    """:class:`Prefetcher` whose waiting queue is re-ranked per drain."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        #: (-priority, seq, queued_at, ready)
        self._waiting: List[Tuple[float, int, float, ReadyPrefetch]] = []

    @property
    def waiting(self) -> int:
        return len(self._waiting)

    def _enqueue_waiting(self, site: str, seq: int, ready: ReadyPrefetch) -> None:
        heapq.heappush(
            self._waiting, (-self._priority(site), seq, self.sim.now, ready)
        )

    def _drain(self) -> None:
        """Re-rank the whole queue from the current signals, then pop.

        Sequence numbers are kept so equal priorities still break ties
        FIFO; with the priority ablation off every key is 0.0, so the
        rebuilt order is exactly FIFO.
        """
        if self._active >= self.max_concurrent or not self._waiting:
            return
        self._waiting = [
            (-self._priority(ready.instance.signature.site), seq, queued_at, ready)
            for _, seq, queued_at, ready in self._waiting
        ]
        heapq.heapify(self._waiting)
        while self._active < self.max_concurrent and self._waiting:
            _, _, queued_at, ready = heapq.heappop(self._waiting)
            self._start(ready, queued_at)
