"""Heap-only discrete-event scheduler: the seed's loop, kept as the oracle.

:class:`~repro.netsim.sim.Simulator` routes zero-delay events through a
FIFO ready ring and runs ``yield sim.spawn(child)`` starts inline.
:class:`HeapOnlySimulator` turns both off: every event goes through the
time heap and nothing is inlined.  Both must produce the same callback
order, virtual timestamps and return values
(``tests/test_sim_fast_path.py``, ``benchmarks/test_perf_experiments.py``).
"""

from __future__ import annotations

import heapq
from typing import Any, Callable

from repro.netsim.sim import Process, Simulator


class HeapOnlySimulator(Simulator):
    """:class:`Simulator` with the ready ring and inline starts disabled."""

    def schedule(self, delay: float, callback: Callable, *args: Any) -> None:
        if delay < 0:
            raise ValueError("cannot schedule in the past")
        self._sequence += 1
        heapq.heappush(
            self._queue, (self._now + delay, self._sequence, callback, args)
        )

    def _inline_start(self, process: Process) -> None:
        return None
