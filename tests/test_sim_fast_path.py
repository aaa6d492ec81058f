"""Fast-path scheduler vs heap-only compat scheduler.

:class:`tests.oracles.HeapOnlySimulator` keeps the seed's pure-heap loop
as the differential oracle: both must produce the same callback order,
the same virtual timestamps, and the same return values on workloads
that mix zero-delay spawn chains, timed delays, events, timeouts,
errors, and interrupts.
"""

import pytest

from repro.metrics.perf import PERF
from repro.netsim.sim import Delay, Event, Process, Simulator, Timeout

from tests.oracles import HeapOnlySimulator


def make_simulator(fast_path):
    """The production scheduler, or the heap-only oracle."""
    return Simulator() if fast_path else HeapOnlySimulator()


# ======================================================================
# differential: identical traces in both modes
# ======================================================================
def spawn_heavy_workload(sim, trace):
    """Nested spawn chains + ties in time + failures, fully recorded."""

    def leaf(tag, delay):
        trace.append(("leaf-start", tag, sim.now))
        if delay:
            yield Delay(delay)
        trace.append(("leaf-end", tag, sim.now))
        return tag

    def failing():
        yield Delay(0.05)
        raise ValueError("boom")

    def mid(tag):
        first = yield sim.spawn(leaf(tag + ".a", 0.0))
        second = yield sim.spawn(leaf(tag + ".b", 0.1))
        try:
            yield sim.spawn(failing())
        except ValueError as error:
            trace.append(("caught", tag, str(error), sim.now))
        return first, second

    def root():
        # multi-spawn-then-wait: children start in spawn order even
        # though the parent only waits afterwards
        children = [sim.spawn(mid("m{}".format(i))) for i in range(3)]
        gate = sim.event()
        sim.schedule(0.2, gate.succeed, "gated")
        trace.append(("gate", (yield gate), sim.now))
        timeout = sim.timeout(0.01)
        yield timeout
        results = []
        for child in children:
            results.append((yield child))
        trace.append(("done", sim.now))
        return results

    return root


def run_workload(fast_path):
    sim = make_simulator(fast_path)
    trace = []
    value = sim.run_process(spawn_heavy_workload(sim, trace)())
    return trace, value, sim.now


def test_fast_path_trace_identical_to_compat():
    fast = run_workload(True)
    compat = run_workload(False)
    assert fast == compat


def test_run_until_identical_in_both_modes():
    def clocked(sim, ticks):
        def process():
            for _ in range(10):
                yield Delay(0.1)
                ticks.append(sim.now)

        return process

    outcomes = []
    for fast_path in (True, False):
        sim = make_simulator(fast_path)
        ticks = []
        sim.spawn(clocked(sim, ticks)())
        stopped = sim.run(until=0.35)
        outcomes.append((ticks, stopped, sim.now))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][1] == 0.35


def test_interrupt_identical_in_both_modes():
    def run(fast_path):
        sim = make_simulator(fast_path)
        log = []

        def worker():
            log.append("started")
            yield Delay(1.0)
            log.append("never")

        process = sim.spawn(worker())
        sim.run(until=0.5)
        process.interrupt()
        sim.run()
        return log, process.alive, process.triggered

    assert run(True) == run(False) == (["started"], False, False)


# ======================================================================
# fast-path internals
# ======================================================================
def test_inline_start_counter_increments_on_spawn_chains():
    sim = Simulator()

    def child():
        yield Delay(0.0)
        return 1

    def parent():
        total = 0
        for _ in range(5):
            total += yield sim.spawn(child())
        return total

    with PERF.capture():
        assert sim.run_process(parent()) == 5
        inline_starts = PERF.get("sim.inline_starts")
        events = PERF.get("sim.events")
    assert inline_starts == 5
    assert events > 0


def test_compat_mode_never_inlines():
    sim = HeapOnlySimulator()

    def child():
        yield Delay(0.0)
        return 1

    def parent():
        value = yield sim.spawn(child())
        return value

    with PERF.capture():
        assert sim.run_process(parent()) == 1
        assert PERF.get("sim.inline_starts") == 0


def test_slots_reject_stray_attributes():
    sim = Simulator()
    event = Event(sim)
    with pytest.raises(AttributeError):
        event.stray = 1
    with pytest.raises(AttributeError):
        Delay(1.0).stray = 1
    with pytest.raises(AttributeError):
        Timeout(sim, 1.0).stray = 1

    def noop():
        yield Delay(0.0)

    with pytest.raises(AttributeError):
        Process(sim, noop()).stray = 1
