"""The benchmark's workloads, and one repetition of one of them.

``python3 perfbench/workloads.py --workload NAME --seed N [--trace]``
runs one repetition in a fresh process — one cold set-up, then the
serving event loop — and prints one JSON line; ``--setup-only`` times
the set-up alone.  ``run.py`` starts one such process per repetition,
so every repetition starts from a cold heap and its peak RSS is its
own.

A repetition's simulated results (latencies, hits, bytes) depend only
on the workload and seed; host speed moves the CPU and wall figures
alone.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: open-loop workloads drive ``repro.experiments.scale.run_scale``;
#: ``user-study`` drives ``repro.experiments.runner.user_study_run``.
#: README.md says why each workload is here.
WORKLOADS: Dict[str, Dict[str, object]] = {
    "session-reuse": {
        "kind": "scale",
        "users": 50,
        "rate_per_user": 1.0,
        "duration": 60.0,
        "warm_start": True,
        "strategy": "appx",
        "max_entries_per_user": None,
    },
    "cold-storm": {
        "kind": "scale",
        "users": 1000,
        "rate_per_user": 0.5,
        "duration": 4.0,
        "warm_start": False,
        "strategy": "appx",
        "max_entries_per_user": 32,
    },
    "forward-only": {
        "kind": "scale",
        "users": 200,
        "rate_per_user": 1.0,
        "duration": 60.0,
        "warm_start": True,
        "strategy": "none",
        "max_entries_per_user": None,
    },
    "user-study": {
        "kind": "user-study",
        "participants": 10,
        "duration": 180.0,
    },
}
SCALE_APPS = ("wish", "doordash")


class LoopClock:
    """CPU and wall time inside ``Simulator.run`` (outermost calls only),
    counted while installed."""

    def __init__(self) -> None:
        self.cpu_s = 0.0
        self.wall_s = 0.0
        self._depth = 0
        self._original = None

    def install(self) -> None:
        from repro.netsim.sim import Simulator

        original = self._original = Simulator.run
        clock = self

        def run(sim, until=None):
            if clock._depth:
                return original(sim, until)
            clock._depth = 1
            cpu, wall = time.process_time(), time.perf_counter()
            try:
                return original(sim, until)
            finally:
                clock.cpu_s += time.process_time() - cpu
                clock.wall_s += time.perf_counter() - wall
                clock._depth = 0

        Simulator.run = run

    def uninstall(self) -> None:
        from repro.netsim.sim import Simulator

        Simulator.run = self._original


def _exact(latencies_s: List[float]) -> Dict[str, float]:
    from repro.metrics.stats import percentile

    return {
        "samples": len(latencies_s),
        "latency_p50_ms": 1000.0 * percentile(latencies_s, 50),
        "latency_p99_ms": 1000.0 * percentile(latencies_s, 99),
    }


def _timed_setup(build, traced: bool):
    """Run ``build`` once: (its value, seconds, set-up layer metrics).
    The layer metrics come only from a traced set-up, else None."""
    tracer = None
    if traced:
        import layers
        from tracer import SpanTracer

        tracer = SpanTracer()
        tracer.install(layers.setup_targets())
    started = time.perf_counter()
    try:
        value = build()
    finally:
        elapsed = time.perf_counter() - started
        if tracer is not None:
            tracer.uninstall()
    return value, elapsed, (layers.setup_metrics(tracer) if traced else None)


def scale_build(spec: Dict[str, object]):
    """Set-up of an open-loop workload: the ``_ScaleDeployment``
    (static analysis, session-template recording, origin maps)."""
    from repro.experiments import scale

    return scale._ScaleDeployment(
        SCALE_APPS,
        max_entries_per_user=spec["max_entries_per_user"],
        strategy=spec["strategy"],
    )


def study_build(spec: Dict[str, object]) -> None:
    """Set-up of the user study: analysis plus §4.3 verification of
    every app, left in ``prepare_app``'s cache for ``user_study_run``."""
    from repro.apps.registry import all_apps
    from repro.experiments.scenario import prepare_app

    for name in all_apps():
        prepare_app(name, disk_cache=False)


def arrival_schedule(spec: Dict[str, object], seed: int, deployment):
    """The open-loop arrivals of one run, drawn from ``seed``.

    Poisson arrivals of a uniformly drawn user, as in ``run_scale``'s
    own generator, except for where a user's session starts: first
    arrivals take template positions from shuffled blocks that hold
    every position once.  Every position is then a first request
    equally often, as a uniform draw gives only on average.  A session
    that starts at the Wish feed sets off tens of times more prefetches
    than one that starts anywhere else.  With uniform draws, how many
    sessions did so moved cold-storm's amplification by 27% of its
    median across five seeds; with blocks, by 10-13%.
    """
    import random

    from repro.experiments.scale import ArrivalSchedule

    users, rate = spec["users"], spec["rate_per_user"]
    user_app = [SCALE_APPS[i % len(SCALE_APPS)] for i in range(users)]
    rng = random.Random(seed)
    blocks: Dict[str, List[int]] = {app: [] for app in SCALE_APPS}
    seen = set()
    events = []
    now = 0.0
    while True:
        dt = rng.expovariate(users * rate)
        now += dt
        if now >= spec["duration"]:
            return ArrivalSchedule(events, dt, users, spec["duration"], rate, seed)
        user = rng.randrange(users)
        position = None
        if user not in seen:
            seen.add(user)
            app = user_app[user]
            if not blocks[app]:
                blocks[app] = list(range(len(deployment.steps[app])))
                rng.shuffle(blocks[app])
            position = blocks[app].pop()
            anchors = deployment.pred_positions[app]
            if spec["warm_start"] and anchors:
                # run_scale's warm start: back up to the chain trigger
                eligible = [p for p in anchors if p <= position]
                position = eligible[-1] if eligible else anchors[0]
        events.append((dt, user, position))


def scale_rep(spec: Dict[str, object], seed: int, traced: bool, capture=None) -> Dict[str, object]:
    """One repetition of an open-loop workload.

    ``capture``, when given, receives ``(user, request, response)`` for
    every response a simulated user got back.
    """
    from repro.experiments import scale

    deployment, setup_s, setup_layers = _timed_setup(lambda: scale_build(spec), traced)

    tally = {"ok": 0, "done": 0}
    base = scale.MultiAppTransport

    class CheckedTransport(base):
        def send(self, request, user):
            response = yield from base.send(self, request, user)
            tally["done"] += 1
            tally["ok"] += response.ok
            if capture is not None:
                capture(user, request, response)
            return response

    scale.MultiAppTransport = CheckedTransport
    clock = LoopClock()
    clock.install()
    tracer = _serve_tracer() if traced else None
    try:
        row = scale.run_scale(
            spec["users"],
            spec["duration"],
            apps=SCALE_APPS,
            rate_per_user=spec["rate_per_user"],
            seed=seed,
            max_entries_per_user=spec["max_entries_per_user"],
            strategy=spec["strategy"],
            arrival_schedule=arrival_schedule(spec, seed, deployment),
            telemetry=True,
            collect_latencies=True,
            _deployment=deployment,
        )
    finally:
        if tracer is not None:
            tracer.uninstall()
        clock.uninstall()
        scale.MultiAppTransport = base
    proxies = [proxy for _, proxy in deployment.multi._apps]
    client_bytes = sum(p.client_bytes for p in proxies)
    sim = _exact(row["latencies_s"])
    sim.update(
        {
            "hit_rate": row["hit_rate"],
            "origin_bytes_ratio": sum(p.total_server_bytes() for p in proxies)
            / client_bytes,
            "prefetch_issued": row["prefetch_issued"],
        }
    )
    return _result(
        sent=row["requests_sent"],
        done=tally["done"],
        ok=tally["ok"],
        completed=row["requests"],
        sim=sim,
        clock=clock,
        setup_s=setup_s,
        setup_layers=setup_layers,
        tracer=tracer,
        stages=row["stage_latency_us"],
    )


def user_study_rep(spec: Dict[str, object], seed: int, traced: bool) -> Dict[str, object]:
    """One repetition of the §6 user-study replay, every app proxied."""
    from repro.apps.registry import all_apps
    from repro.experiments import runner
    from repro.experiments.scale import stage_latency_from_registry
    from repro.metrics.perf import PERF

    apps = list(all_apps())
    _, setup_s, setup_layers = _timed_setup(lambda: study_build(spec), traced)

    interactions: List[object] = []
    replay = runner.replay_trace

    def counted_replay(runtime, trace):
        results = yield from replay(runtime, trace)
        interactions.extend(results)
        return results

    runner.replay_trace = counted_replay
    clock = LoopClock()
    clock.install()
    tracer = _serve_tracer() if traced else None
    latencies: List[float] = []
    server_bytes = demand_bytes = hits = forwarded = 0
    try:
        with PERF.capture():
            for name in apps:
                out = runner.user_study_run(
                    name,
                    proxied=True,
                    participants=spec["participants"],
                    duration=spec["duration"],
                    seed=seed,
                )
                latencies.extend(out["all_latencies"])
                server_bytes += out["server_bytes"]
                demand_bytes += out["demand_bytes"]
                hits += out["proxy_stats"]["served_prefetched"]
                forwarded += out["proxy_stats"]["forwarded"]
            stage_latency = stage_latency_from_registry(PERF.registry)
    finally:
        if tracer is not None:
            tracer.uninstall()
        clock.uninstall()
        runner.replay_trace = replay
    ok = sum(
        1 for result in interactions if all(t.response.ok for t in result.transactions)
    )
    sim = _exact(latencies)
    answered = hits + forwarded
    sim.update(
        {
            "hit_rate": hits / answered,
            "origin_bytes_ratio": server_bytes / demand_bytes,
        }
    )
    return _result(
        sent=len(interactions),
        done=len(interactions),
        ok=ok,
        completed=len(latencies),
        sim=sim,
        clock=clock,
        setup_s=setup_s,
        setup_layers=setup_layers,
        tracer=tracer,
        stages=stage_latency,
    )


def _serve_tracer():
    import layers
    from tracer import SpanTracer

    tracer = SpanTracer()
    tracer.install(layers.serve_targets())
    return tracer


def _result(
    sent: int,
    done: int,
    ok: int,
    completed: int,
    sim: Dict[str, object],
    clock: LoopClock,
    setup_s: float,
    setup_layers: Optional[Dict[str, float]],
    tracer,
    stages: Dict[str, Dict[str, float]],
) -> Dict[str, object]:
    from repro.metrics.perf import rss_peak_bytes

    result: Dict[str, object] = {
        "sent": sent,
        "done": done,
        "ok": ok,
        "completed": completed,
        "sim": sim,
        "loop_cpu_s": clock.cpu_s,
        "loop_wall_s": clock.wall_s,
        "setup_s": setup_s,
        "peak_rss_bytes": rss_peak_bytes(),
    }
    if tracer is not None:
        import layers

        metrics, cross = layers.serve_metrics(tracer, clock.wall_s, stages)
        metrics.update(setup_layers)
        result["layers"] = metrics
        result["cross_check"] = cross
        result["_tracer"] = tracer
    return result


def run_rep(name: str, seed: int, traced: bool = False, capture=None) -> Dict[str, object]:
    spec = WORKLOADS[name]
    if spec["kind"] == "scale":
        return scale_rep(spec, seed, traced, capture)
    return user_study_rep(spec, seed, traced)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true", help="time one set-up, serve nothing")
    parser.add_argument("--spans", help="write the traced run's spans here (.tsv.gz)")
    args = parser.parse_args(argv)
    sys.path.insert(0, SRC)
    # imported before any timing, so no set-up reading includes them
    import repro.experiments.runner  # noqa: F401
    import repro.experiments.scale  # noqa: F401

    spec = WORKLOADS[args.workload]
    if args.setup_only:
        build = scale_build if spec["kind"] == "scale" else study_build
        result = {"setup_s": _timed_setup(lambda: build(spec), False)[1]}
    else:
        result = run_rep(args.workload, args.seed, args.trace)
    tracer = result.pop("_tracer", None)
    if tracer is not None and args.spans:
        result["spans_written"] = tracer.write(args.spans)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
