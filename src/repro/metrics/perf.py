"""Hot-path instrumentation: the PERF gate and the ``stage()`` context.

The proxy's request path — signature dispatch, pending-instance wakes,
cache lookups, prefetch issuing — is instrumented with named counters
and per-stage wall-clock timers so benchmarks can assert *work done*
(regex attempts, candidates examined, retries) instead of flaky wall
time.  Everything funnels through one process-global
:class:`PerfCounters` instance, :data:`PERF`: an enable gate over one
:class:`~repro.metrics.registry.MetricRegistry`, whose ``counters``
dict the hot path writes directly.

Each serving step is measured by one call, :func:`stage`.  The catalog
(:data:`repro.metrics.catalog.STAGES`) declares per stage the trace
span it opens on a sampled request and the timer it feeds while PERF
is enabled; one clock pair then serves both — the timer lands in the
``stage_seconds{stage=<timer>}`` histogram (count, sum and p50/p95/p99
in one store), the span in the request's
:class:`~repro.metrics.trace.TraceContext`.

Disabled (the default) the cost at a call site is one function call
returning a shared idle context; the hottest loops guard counters with
``if PERF.enabled:`` so not even the call happens.  Enable around a
measured region::

    from repro.metrics.perf import PERF

    with PERF.capture():          # enable + reset, restore on exit
        run_workload()
        snapshot = PERF.snapshot()
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager
from typing import Dict, Iterator, Optional

from repro.metrics.catalog import STAGE_SECONDS, STAGES
from repro.metrics.registry import MetricRegistry
from repro.metrics.trace import Span, TraceContext


class PerfCounters:
    """The enable gate over one registry (named counters + histograms)."""

    __slots__ = ("enabled", "registry", "counters")

    def __init__(self) -> None:
        self.enabled = False
        self.registry = MetricRegistry()
        # the registry's own store, not a copy — reset() clears it in
        # place so the alias stays live
        self.counters: Dict[str, int] = self.registry.counters

    # -- lifecycle ------------------------------------------------------
    def reset(self) -> None:
        self.registry.reset()

    @contextmanager
    def capture(self, reset: bool = True) -> Iterator["PerfCounters"]:
        """Enable counting inside the block; restore prior state after."""
        previous = self.enabled
        if reset:
            self.reset()
        self.enabled = True
        try:
            yield self
        finally:
            self.enabled = previous

    # -- recording ------------------------------------------------------
    def incr(self, name: str, amount: int = 1) -> None:
        if self.enabled:
            self.counters[name] = self.counters.get(name, 0) + amount

    def peak(self, name: str, value: int) -> None:
        """Record a high-water mark (keeps the max seen under ``name``)."""
        if self.enabled and value > self.counters.get(name, 0):
            self.counters[name] = value

    def merge(self, snapshot: Dict) -> None:
        """Fold a worker process's :meth:`snapshot` in (while enabled)."""
        if self.enabled:
            self.registry.merge(snapshot)

    # -- reading --------------------------------------------------------
    def get(self, name: str) -> int:
        return self.counters.get(name, 0)

    def snapshot(self) -> Dict[str, object]:
        return self.registry.snapshot()

    def __repr__(self) -> str:
        return "PerfCounters(enabled={}, {} counters)".format(
            self.enabled, len(self.counters)
        )


def rss_peak_bytes() -> int:
    """This process's peak resident set size, in bytes (0 if unknown).

    ``ru_maxrss`` is kilobytes on Linux and bytes on macOS; the scale
    harness reports it alongside per-request cost so memory growth with
    the user population is visible in the trajectory artifacts.  The
    value is a process-lifetime high-water mark, so within one process
    successive measurements only ever rise.
    """
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX fallback
        return 0
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover - platform specific
        return int(peak)
    return int(peak) * 1024


#: process-global counter sink used by the proxy hot path
PERF = PerfCounters()


# ======================================================================
# stage(): one instrumentation call per serving step
# ======================================================================
#: stage name -> (span name or None, timer labels or None)
_STAGES = {
    name: (span, {"stage": timer} if timer is not None else None)
    for name, (span, timer) in STAGES.items()
}


class _Idle:
    """The shared context of a step that records nothing."""

    __slots__ = ()

    def __enter__(self) -> "_Idle":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None

    def tag(self, **tags) -> None:
        pass


_IDLE = _Idle()


class _Step:
    """One open stage: its optional span and its optional timer."""

    __slots__ = ("trace", "span", "timer", "started")

    def __init__(
        self,
        trace: Optional[TraceContext],
        span_name: Optional[str],
        tags: Dict[str, object],
        timer: Optional[Dict[str, str]],
    ) -> None:
        self.trace = trace
        self.timer = timer
        self.span = None
        if trace is not None:
            span = self.span = Span(span_name)
            if tags:
                span.tags.update(tags)

    def __enter__(self) -> "_Step":
        span = self.span
        if span is not None and self.trace.sim_clock is not None:
            span.sim_started = self.trace.sim_clock()
        self.started = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        elapsed = time.perf_counter() - self.started
        if self.timer is not None:
            PERF.registry.observe(STAGE_SECONDS, elapsed, labels=self.timer)
        span = self.span
        if span is not None and exc_type is None:
            # a step cut short by an exception files no span
            span.wall_s = elapsed
            if span.sim_started is not None:
                span.sim_s = self.trace.sim_clock() - span.sim_started
            self.trace.spans.append(span)
        return None

    def tag(self, **tags) -> None:
        """Tag the span; callable until the trace is finished."""
        if self.span is not None:
            self.span.tags.update(tags)


def stage(trace: Optional[TraceContext], name: str, **tags):
    """Measure one serving step: ``with stage(trace, "match") as step:``.

    ``name`` is a :data:`~repro.metrics.catalog.STAGES` key (an
    undeclared name raises ``KeyError``).  On a sampled ``trace`` the
    block files the stage's span, tagged with ``tags`` plus whatever
    ``step.tag(...)`` adds; while PERF is enabled it observes the
    block's wall seconds under the stage's timer.  A block held open
    across a simulator ``yield`` measures the suspension too, in wall
    and in sim time; no timed stage spans a yield.
    """
    span_name, timer = _STAGES[name]
    if not PERF.enabled:
        timer = None
    if span_name is None:
        trace = None
    if trace is None and timer is None:
        return _IDLE
    return _Step(trace, span_name, tags, timer)
