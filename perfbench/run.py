"""APPx benchmark: one workload, one seed, every metric by name and unit.

    python3 perfbench/run.py --workload session-reuse --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  ``--trace 0`` repeats the workload,
each repetition in a fresh process, until ``--seconds`` are spent and
prints the end-to-end metrics.  ``--trace 1`` runs the workload once
untraced and once traced and prints the per-layer metrics.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the full record (host,
per-repetition figures, checks) goes to ``.perfbench-out/``.  See
``perfbench/README.md`` for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench-out")
sys.path.insert(0, HERE)

from layers import unit_of  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: a run must end within this many seconds; no repetition may start
#: that would need more than what is left
RUN_LIMIT_S = 170.0
#: cold set-ups (one per process) behind the setup_s median
SETUP_SAMPLES = {"scale": 5, "user-study": 3}
#: end-to-end metrics read off the simulation (exact for a seed)
SIM_METRICS = (
    ("latency_p50_ms", "sim_ms"),
    ("latency_p99_ms", "sim_ms"),
    ("origin_bytes_ratio", "ratio"),
)


class RepFailed(RuntimeError):
    pass


def run_rep(
    workload: str, seed: int, traced: bool, deadline: float, setup_only: bool = False
) -> Dict[str, object]:
    """One repetition in a fresh process; its JSON result."""
    command = [
        sys.executable,
        os.path.join(HERE, "workloads.py"),
        "--workload",
        workload,
        "--seed",
        str(seed),
    ]
    if setup_only:
        command.append("--setup-only")
    if traced:
        os.makedirs(OUT_DIR, exist_ok=True)
        spans = os.path.join(OUT_DIR, "spans-{}.tsv.gz".format(workload))
        command += ["--trace", "--spans", spans]
    # pinned so a repetition is the same program on every run; the
    # determinism test shows the results do not depend on it
    env = dict(os.environ, PYTHONHASHSEED="0")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RepFailed("no time left for a repetition")
    try:
        proc = subprocess.run(
            command, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired as exc:
        raise RepFailed("repetition exceeded the run's time limit") from exc
    if proc.returncode != 0:
        raise RepFailed(
            "repetition exited {}:\n{}".format(proc.returncode, proc.stderr[-4000:])
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def rep_checks(reps: List[Dict[str, object]]) -> Dict[str, str]:
    """Correctness of the served outputs, one status per check."""
    checks = {}
    lost = [r["sent"] - r["done"] for r in reps]
    checks["every_request_completed"] = (
        "passed"
        if all(r["sent"] == r["done"] == r["completed"] for r in reps)
        else "failed: sent/completed differ by {}".format(lost)
    )
    first = reps[0]["sim"]
    checks["sim_metrics_repeat_exactly"] = (
        "passed"
        if all(r["sim"] == first for r in reps[1:])
        else "failed: repetitions of one seed disagree"
    )
    if len(reps) < 2:
        checks["sim_metrics_repeat_exactly"] = "unverified: one repetition only"
    return checks


def cpu_us_per_req(rep: Dict[str, object]) -> float:
    """Event-loop CPU per request (per interaction on user-study)."""
    return 1e6 * rep["loop_cpu_s"] / rep["completed"]


def end_to_end(
    reps: List[Dict[str, object]], setups: List[float]
) -> Dict[str, Tuple[float, str]]:
    sim = reps[0]["sim"]
    metrics = {name: (float(sim[name]), unit) for name, unit in SIM_METRICS}
    metrics["peak_rss_mb"] = (
        statistics.median(r["peak_rss_bytes"] / 2.0 ** 20 for r in reps),
        "MB",
    )
    metrics["setup_s"] = (statistics.median(setups), "s")
    return metrics


def measure(workload: str, seed: int, seconds: float, deadline: float):
    """Repeat the workload until ``seconds`` are spent (at least once),
    then time cold set-ups until there are enough for a median."""
    started = time.monotonic()
    reps = [run_rep(workload, seed, False, deadline)]
    while True:
        elapsed = time.monotonic() - started
        per_rep = elapsed / len(reps)
        # start another only if it ends within half a repetition of
        # the budget, and well inside the run's hard limit
        if elapsed + per_rep / 2 > seconds or time.monotonic() + 2 * per_rep > deadline:
            break
        reps.append(run_rep(workload, seed, False, deadline))
    setups = [r["setup_s"] for r in reps]
    while len(setups) < SETUP_SAMPLES[WORKLOADS[workload]["kind"]]:
        setups.append(run_rep(workload, seed, False, deadline, setup_only=True)["setup_s"])
    return reps, setups


def traced(workload: str, seed: int, deadline: float):
    plain = run_rep(workload, seed, False, deadline)
    reps = [plain, run_rep(workload, seed, True, deadline)]
    layer_metrics = dict(reps[1]["layers"])
    layer_metrics["trace.overhead"] = reps[1]["loop_wall_s"] / plain["loop_wall_s"]
    layer_metrics["serve.cpu_us_per_req"] = cpu_us_per_req(plain)
    metrics = {name: (float(v), unit_of(name)) for name, v in layer_metrics.items()}
    checks = {}
    for stage, cell in sorted(reps[1]["cross_check"].items()):
        if not cell["stage_calls"]:
            status = "unverified: the stage never ran on this workload"
        elif cell["agrees"]:
            status = "passed"
        else:
            status = "failed: {}".format(cell)
        checks["cross_check." + stage] = status
    return reps, metrics, checks


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("run from a checkout of the repository: src/repro is missing", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    try:
        if args.trace:
            reps, metrics, checks = traced(args.workload, args.seed, deadline)
        else:
            reps, setups = measure(args.workload, args.seed, args.seconds, deadline)
            metrics, checks = end_to_end(reps, setups), {}
    except RepFailed as exc:
        print("benchmark failed: {}".format(exc), file=sys.stderr)
        return 1
    checks.update(rep_checks(reps))
    if any(r["peak_rss_bytes"] <= 0 for r in reps):
        checks["peak_rss_measured"] = "unverified: no RSS reading on this platform"
    attempted = sum(r["sent"] for r in reps)
    failed = sum(r["sent"] - r["ok"] for r in reps)
    host = {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "machine": platform.machine(),
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "host": host,
        "repetitions": len(reps),
        "checks": checks,
        "sim": reps[0]["sim"],
        "reps": [
            {k: v for k, v in r.items() if k not in ("sim", "layers")} for r in reps
        ],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    name = "{}-seed{}-trace{}.json".format(args.workload, args.seed, args.trace)
    with open(os.path.join(OUT_DIR, name), "w") as out:
        json.dump(record, out, indent=1, sort_keys=True)

    print("workload {} seed {} trace {}: {} repetition(s); host {} cores, Python {}".format(
        args.workload, args.seed, args.trace, len(reps), host["cores"], host["python"]))
    print("samples {}  hit_rate {:.4f}  error_rate {:.4f}".format(
        reps[0]["sim"]["samples"], reps[0]["sim"]["hit_rate"], failed / attempted))
    print("cpu_us_per_req {:.1f} (median of repetitions; host-noisy, not gated)".format(
        statistics.median(cpu_us_per_req(r) for r in reps)))
    for name, status in sorted(checks.items()):
        print("check {:<40} {}".format(name, status))
    for name, (value, unit) in sorted(metrics.items()):
        print("{:<44} {:>16.6f} {}".format(name, value, unit))
    correct = not any(s.startswith("failed") for s in checks.values())
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
