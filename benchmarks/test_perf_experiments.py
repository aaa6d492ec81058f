"""Parallel experiment engine benchmark: fan-out, cache, sim fast path.

Three measurements, one per layer of the engine, written to
``BENCH_experiments.json`` at the repo root:

* a fig15-style sweep (all apps x RTTs) run serially and over a
  4-worker process pool with a warm on-disk artifact cache — rows must
  be byte-identical; wall-clock speedup is recorded, and asserted
  (>= 2x) only on machines with >= 4 cores, since a 1-core container
  cannot physically show it.  On *any* machine the parallel entry
  point must not lose to serial by more than noise — the break-even
  projection falls back to in-process execution when the pool cannot
  pay for itself;
* the analysis artifact cache: cold ``prepare_app`` vs a warm load
  from disk for the same app;
* the simulator event loop: the same spawn-heavy workload under the
  fast-path and heap-only compat schedulers.  The structural claim is
  counter-based (inline starts replace scheduler pops one-for-one);
  events/sec in both modes is recorded for the trajectory.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import pytest

from conftest import banner

from repro.experiments import parallel, scenario
from repro.experiments.cache import AnalysisArtifactCache
from repro.metrics.perf import PERF
from repro.netsim.sim import Delay, Simulator

from tests.oracles import HeapOnlySimulator

ARTIFACT = Path(__file__).resolve().parent.parent / "BENCH_experiments.json"

SWEEP_RTTS = (0.050, 0.100)
SWEEP_PARTICIPANTS = 4
SWEEP_JOBS = 4


def _warm_cache(tmp_path):
    """Analyze every app once, persisting artifacts to a fresh cache."""
    cache = AnalysisArtifactCache(str(tmp_path / "artifact-cache"))
    scenario._PREPARED.clear()
    started = time.perf_counter()
    for name in parallel.plan_cells("table3"):
        scenario.prepare_app(name[1]["name"], disk_cache=cache)
    cold_s = time.perf_counter() - started

    # warm load: drop the in-process memo so prepare comes from disk
    scenario._PREPARED.clear()
    started = time.perf_counter()
    for name in parallel.plan_cells("table3"):
        scenario.prepare_app(name[1]["name"], disk_cache=cache)
    warm_s = time.perf_counter() - started
    return cache, {"cold_prepare_s": cold_s, "warm_prepare_s": warm_s,
                   "hits": cache.hits, "writes": cache.writes}


@pytest.mark.bench
def test_perf_experiments(tmp_path):
    result = {"cpu_count": os.cpu_count(), "jobs": SWEEP_JOBS}

    # -- layer 2: artifact cache, cold vs warm -------------------------
    cache, cache_stats = _warm_cache(tmp_path)
    result["artifact_cache"] = cache_stats

    # -- layer 1: serial vs process-pool sweep -------------------------
    params = {"rtts": SWEEP_RTTS, "participants": SWEEP_PARTICIPANTS}
    started = time.perf_counter()
    serial_rows = parallel.SERIAL_RUNNERS["fig15"](**params)
    serial_s = time.perf_counter() - started

    with PERF.capture() as perf:
        started = time.perf_counter()
        pooled_rows = parallel.run_figure(
            "fig15",
            jobs=SWEEP_JOBS,
            params=dict(params),
            artifact_cache=cache,
            capture_perf=True,
        )
        parallel_s = time.perf_counter() - started
        counters = dict(perf.counters)

    identical = json.dumps(pooled_rows, sort_keys=True) == json.dumps(
        serial_rows, sort_keys=True
    )
    speedup = serial_s / parallel_s if parallel_s else float("inf")
    result["sweep"] = {
        "figure": "fig15",
        "cells": counters.get("experiments.cells", 0),
        "serial_wall_s": serial_s,
        "parallel_wall_s": parallel_s,
        "speedup": speedup,
        "byte_identical": identical,
        "worker_counters": {
            name: counters[name]
            for name in sorted(counters)
            if name.startswith(("analysis_cache.", "experiments."))
        },
    }

    # -- layer 3: sim fast path vs compat ------------------------------
    def spawn_chains(sim, chains=4000):
        def leaf():
            yield Delay(0.0)
            return 1

        def chain():
            total = yield sim.spawn(leaf())
            total += yield sim.spawn(leaf())
            yield Delay(0.001)
            return total

        def root():
            # sequential spawn-then-wait chains: the transport/origin
            # pattern the inline-completion path exists for
            total = 0
            for _ in range(chains):
                total += yield sim.spawn(chain())
            # plus a batch of overlapping children (never inlined —
            # siblings are queued ahead), so both paths are exercised
            children = [sim.spawn(leaf()) for _ in range(chains // 4)]
            for child in children:
                total += yield child
            return total

        return root

    sim_modes = {}
    for mode, simulator_class in (("fast", Simulator), ("compat", HeapOnlySimulator)):
        best_s, events, inline = None, 0, 0
        for _ in range(3):
            sim = simulator_class()
            with PERF.capture():
                started = time.perf_counter()
                sim.run_process(spawn_chains(sim)())
                elapsed = time.perf_counter() - started
                events = PERF.get("sim.events")
                inline = PERF.get("sim.inline_starts")
            if best_s is None or elapsed < best_s:
                best_s = elapsed
        steps = events + inline
        sim_modes[mode] = {
            "wall_s": best_s,
            "scheduler_pops": events,
            "inline_starts": inline,
            "steps_per_s": steps / best_s if best_s else 0.0,
        }
    result["sim"] = sim_modes
    result["sim"]["pop_reduction"] = 1.0 - (
        sim_modes["fast"]["scheduler_pops"]
        / float(sim_modes["compat"]["scheduler_pops"])
    )

    banner("Parallel experiment engine: fan-out / cache / sim fast path")
    print(
        "sweep: {} cells, serial {:.2f}s, {}-worker pool {:.2f}s "
        "({:.2f}x, byte-identical={})".format(
            result["sweep"]["cells"], serial_s, SWEEP_JOBS, parallel_s,
            speedup, identical,
        )
    )
    print(
        "artifact cache: cold prepare {:.2f}s -> warm {:.3f}s "
        "({} writes, {} hits)".format(
            cache_stats["cold_prepare_s"], cache_stats["warm_prepare_s"],
            cache_stats["writes"], cache_stats["hits"],
        )
    )
    for mode in ("fast", "compat"):
        stats = sim_modes[mode]
        print(
            "sim {:<7} {:>9.0f} steps/s  ({} pops, {} inline starts)".format(
                mode, stats["steps_per_s"], stats["scheduler_pops"],
                stats["inline_starts"],
            )
        )

    # correctness is unconditional
    assert identical
    # the cache turns multi-second analysis+fuzzing into a sub-second load
    assert cache_stats["warm_prepare_s"] < cache_stats["cold_prepare_s"] / 2.0
    assert cache_stats["hits"] >= cache_stats["writes"] > 0
    # structural fast-path claim: every inline start replaces exactly one
    # scheduler pop — same total steps, fewer queue round-trips
    assert sim_modes["fast"]["inline_starts"] > 0
    assert sim_modes["compat"]["inline_starts"] == 0
    assert (
        sim_modes["fast"]["scheduler_pops"] + sim_modes["fast"]["inline_starts"]
        == sim_modes["compat"]["scheduler_pops"]
    )
    # the break-even fallback guarantees jobs>1 is never a regression:
    # on few-core boxes the projection keeps the sweep serial, so the
    # parallel entry point costs at most noise over the serial oracle
    assert parallel_s <= serial_s * 1.10
    # wall-clock speedup needs real cores; a 1-core container cannot show it
    if (os.cpu_count() or 1) >= SWEEP_JOBS:
        assert speedup >= 2.0

    ARTIFACT.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    print("wrote {}".format(ARTIFACT.name))
