"""Differential oracles: the simpler implementations the fast paths replace.

Each oracle is the seed's straightforward version of one serving
mechanism, kept only so tests can replay the same workload through it
and through the production path and assert identical observables:

* :class:`FlatPrefetchCache` — one flat ``(user, exact_key)`` table with
  full-scan purge, against the sharded, timer-wheel
  :class:`~repro.proxy.cache.PrefetchCache`;
* :class:`RebuildDrainPrefetcher` — re-rank the whole waiting queue on
  every drain, against the lazy epoch-stamped drain of
  :class:`~repro.proxy.prefetcher.Prefetcher`;
* :func:`build_naive` — resolve every field on every attempt, against
  :meth:`~repro.proxy.instances.RequestInstance.build`'s shared plan;
* :class:`HeapOnlySimulator` — every event through the time heap, no
  inline starts, against :class:`~repro.netsim.sim.Simulator`'s ready
  ring.

Production code never imports from here.
"""

from tests.oracles.cache import FlatPrefetchCache
from tests.oracles.instances import build_naive
from tests.oracles.prefetcher import RebuildDrainPrefetcher
from tests.oracles.sim import HeapOnlySimulator

__all__ = [
    "FlatPrefetchCache",
    "HeapOnlySimulator",
    "RebuildDrainPrefetcher",
    "build_naive",
]
