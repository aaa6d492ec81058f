"""The benchmark's own checks: served responses, determinism, tracer.

    PYTHONPATH=src python -m pytest perfbench -q      (about two minutes)

They are not part of the tier-1 suite (``testpaths`` is ``tests``).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from typing import Dict, List, Tuple

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import layers  # noqa: E402
import workloads  # noqa: E402
from tracer import SpanTracer  # noqa: E402


def _served(strategy: str, seed: int) -> Dict[Tuple[str, str], List[str]]:
    from repro.httpmsg.wire import serialize_response

    served: Dict[Tuple[str, str], List[str]] = {}

    def capture(user, request, response) -> None:
        key = (user, request.exact_key())
        served.setdefault(key, []).append(serialize_response(response))

    spec = dict(workloads.WORKLOADS["session-reuse"], strategy=strategy)
    result = workloads.scale_rep(spec, seed, traced=False, capture=capture)
    assert result["sent"] == result["done"] == result["ok"]
    return served


def test_prefetched_responses_equal_forwarded_ones():
    """Replaying session-reuse's arrivals with prefetching off and on,
    every request both runs sent got the same response bytes."""
    plain = _served("none", seed=1)
    accelerated = _served("appx", seed=1)
    pairs = differing = 0
    for key, responses in accelerated.items():
        for mine, theirs in zip(responses, plain.get(key, [])):
            pairs += 1
            differing += mine != theirs
    assert pairs > 1000
    assert differing == 0, "{} of {} pairs differ".format(differing, pairs)


def _rep_subprocess(workload: str, seed: int, hash_seed: str, *flags: str) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "workloads.py"),
         "--workload", workload, "--seed", str(seed), *flags],
        cwd=ROOT,
        env=dict(os.environ, PYTHONHASHSEED=hash_seed),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_sim_metrics_do_not_depend_on_hash_seed():
    first = _rep_subprocess("session-reuse", 3, "1")
    second = _rep_subprocess("session-reuse", 3, "2")
    assert first["sim"] == second["sim"]


@pytest.fixture(scope="module")
def traced_forward_only():
    return _rep_subprocess("forward-only", 2, "0", "--trace")


def test_tracer_agrees_with_internal_stage_timers(traced_forward_only):
    for stage, cell in traced_forward_only["cross_check"].items():
        assert cell["stage_calls"] > 0, stage
        assert cell["agrees"], (stage, cell)


def test_traced_run_reports_every_declared_metric(traced_forward_only):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        declared = json.load(handle)
    # run.py adds the two figures that need the untraced twin
    produced = set(traced_forward_only["layers"]) | {
        "trace.overhead",
        "serve.cpu_us_per_req",
    }
    per_layer = {m["name"]: m["unit"] for m in declared["per_layer"]}
    assert set(per_layer) == produced
    assert all(layers.unit_of(name) == unit for name, unit in per_layer.items())
    assert {w["name"] for w in declared["workloads"]} == set(workloads.WORKLOADS)


def test_tracing_leaves_the_simulation_unchanged(traced_forward_only):
    plain = _rep_subprocess("forward-only", 2, "0")
    assert plain["sim"] == traced_forward_only["sim"]


class _Toy:
    def work(self, n):
        return sum(range(n))

    def process(self, n):
        yield self.work(n)
        yield self.work(n)
        return "done"


def test_self_time_excludes_children_and_waits():
    original = _Toy.__dict__["work"]
    tracer = SpanTracer()
    tracer.install([("toy.work", _Toy, "work", None), ("toy.process", _Toy, "process", None)])
    try:
        generator = _Toy().process(20000)
        steps = list(generator)
    finally:
        tracer.uninstall()
    assert _Toy.__dict__["work"] is original
    assert steps == [sum(range(20000))] * 2
    inclusive, exclusive = tracer.totals()
    # three resumes of the process, each the parent of at most one work call
    assert tracer.call_count("toy.process") == 1
    assert tracer.call_count("toy.work") == 2
    assert len(tracer.start) == 5
    names = [tracer.names[i] for i in tracer.span_name]
    parents = [names[p] if p >= 0 else None for p in tracer.parent]
    assert parents == [None, "toy.process", None, "toy.process", None]
    assert exclusive["toy.work"] == pytest.approx(inclusive["toy.work"])
    assert exclusive["toy.process"] == pytest.approx(
        inclusive["toy.process"] - inclusive["toy.work"]
    )
