"""Multi-process sharded proxy fleet (``python -m repro scale --workers N``).

:mod:`repro.experiments.scale` measures the serving core one process at
a time; real deployments scale *out* — N proxy processes, each owning a
disjoint slice of the user population.  This module is that fleet:

* **Consistent-hash sharding** — users map onto workers through a
  blake2b hash ring with virtual nodes (:class:`ConsistentHashRing`),
  so growing the fleet from N to N+1 workers remaps only ~1/(N+1) of
  the users instead of reshuffling everyone.  Python's builtin
  ``hash()`` is salted per process and useless here; blake2b keys are
  stable across processes and runs.

* **One global arrival schedule, partitioned per shard** — the
  supervisor pre-draws the full open-loop Poisson process with the run
  seed (:meth:`~repro.experiments.scale._ScaleDeployment.arrival_schedule`,
  the same draw the serial harness makes), then
  splits it by owning shard while accumulating inter-arrival deltas
  (:func:`partition_schedule`).  Every worker replays exactly the
  arrival instants the single-process harness would have produced:
  sharding changes *where* a user is served, never *when*.  With
  ``--workers 1`` the partition is the identity, which makes the fleet
  byte-equivalent to the serial path — the differential oracle
  ``tests/test_experiments_fleet.py`` pins.

* **Batched fold-back** — each worker sends ONE message when its serve
  phase ends: its metrics row, its full
  :meth:`~repro.metrics.registry.MetricRegistry.snapshot`, and its
  trace ring.  The supervisor folds the registries with
  :meth:`~repro.metrics.registry.MetricRegistry.merge`, absorbs the
  trace rings with :meth:`~repro.metrics.trace.Tracer.absorb`, and
  recomputes the aggregate row with the same helpers the serial
  harness uses — one registry snapshot out, regardless of N.

* **Failure containment** — a supervisor-side monitor aborts the start
  barrier the moment a worker dies before serving, queued error
  payloads surface the worker's traceback, and a join deadline catches
  hung workers; every path raises :class:`FleetWorkerError` naming the
  failed shard's user slice instead of deadlocking the run.

Workers synchronize on a barrier *after* building their deployments,
so the measured fleet wall clock covers serving plus fold-back IPC —
the honest denominator for the scale-out gate in
``benchmarks/test_perf_scale.py`` (≥1.8x requests/wall-s at 4 workers).
"""

from __future__ import annotations

import functools
import inspect
import multiprocessing
import os
import queue as queue_module
import threading
import time
import traceback
from bisect import bisect_right
from hashlib import blake2b
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.experiments.scale import (
    SUMMED_KEYS,
    TRACE_CAPACITY,
    ArrivalSchedule,
    _ScaleDeployment,
    append_summary_record,
    finish_row,
    miss_causes_from_counters,
    run_scale,
    stage_latency_from_registry,
)
from repro.metrics.live import LiveWindows, standard_readings
from repro.metrics.perf import PERF
from repro.metrics.registry import MetricRegistry
from repro.metrics.slo import SloEngine
from repro.metrics.trace import TRACER

#: virtual nodes per shard on the hash ring — enough that the largest
#: shard stays within a few percent of the mean at fleet sizes ≤ 16
DEFAULT_REPLICAS = 64
DEFAULT_WORKER_TIMEOUT_S = 300.0

_RUN_SIGNATURE = inspect.signature(run_scale)
#: the run_scale arguments that shape the deployment it builds
_DEPLOY_ARGS = tuple(
    name
    for name in inspect.signature(_ScaleDeployment).parameters
    if name in _RUN_SIGNATURE.parameters
)


# ======================================================================
# consistent-hash user sharding
# ======================================================================
def _hash64(key: str) -> int:
    """Stable 64-bit hash (blake2b) — identical in every process."""
    return int.from_bytes(blake2b(key.encode("utf-8"), digest_size=8).digest(), "big")


class ConsistentHashRing:
    """Classic consistent-hash ring over ``shards`` with virtual nodes.

    Each shard owns ``replicas`` points on a 64-bit ring; a key belongs
    to the shard owning the first point clockwise of the key's hash.
    Adding one shard therefore steals roughly ``1/(N+1)`` of the keys
    from the existing N instead of remapping everything — the property
    ``tests/test_experiments_fleet.py`` asserts.
    """

    __slots__ = ("shards", "replicas", "_points", "_owners")

    def __init__(self, shards: int, replicas: int = DEFAULT_REPLICAS) -> None:
        if shards < 1:
            raise ValueError("shards must be >= 1")
        if replicas < 1:
            raise ValueError("replicas must be >= 1")
        self.shards = shards
        self.replicas = replicas
        points: List[Tuple[int, int]] = []
        for shard in range(shards):
            for replica in range(replicas):
                points.append((_hash64("shard:{}:vnode:{}".format(shard, replica)), shard))
        points.sort()
        self._points = [point for point, _ in points]
        self._owners = [owner for _, owner in points]

    def shard_for(self, key: str) -> int:
        index = bisect_right(self._points, _hash64(key)) % len(self._points)
        return self._owners[index]


def shard_users(users: int, workers: int) -> List[int]:
    """``assignment[user_index] -> shard`` for the whole population."""
    ring = ConsistentHashRing(workers)
    return [ring.shard_for("u{}".format(index)) for index in range(users)]


def shard_seed(seed: int, shard: int) -> int:
    """Derive a per-shard RNG stream from the run seed, stably."""
    return _hash64("seed:{}:shard:{}".format(seed, shard))


def partition_schedule(
    schedule: ArrivalSchedule, assignment: Sequence[int], workers: int
) -> List[ArrivalSchedule]:
    """Split one global arrival schedule into per-shard schedules.

    Each event's delta is re-expressed relative to the previous event
    *of the same shard* by accumulating the deltas of events routed
    elsewhere, so replaying a shard's schedule reproduces its users'
    global arrival instants exactly (same left-fold float additions).
    Each shard's terminal delta carries it to the same final instant as
    the global schedule, keeping per-worker simulated horizons equal.
    For one worker this is the identity partition — delta for delta the
    input schedule, which is what makes ``--workers 1`` byte-equivalent
    to the serial path.
    """
    events: List[List[Tuple[float, int, Optional[int]]]] = [[] for _ in range(workers)]
    pending = [0.0] * workers
    for dt, user_index, first_position in schedule.events:
        for shard in range(workers):
            pending[shard] = pending[shard] + dt
        shard = assignment[user_index]
        events[shard].append((pending[shard], user_index, first_position))
        pending[shard] = 0.0
    return [
        ArrivalSchedule(
            events[shard],
            pending[shard] + schedule.terminal_dt,
            schedule.users,
            schedule.duration,
            schedule.rate_per_user,
            schedule.seed,
        )
        for shard in range(workers)
    ]


# ======================================================================
# failure surface
# ======================================================================
class FleetWorkerError(RuntimeError):
    """A fleet worker crashed, raised, or hung; names the failed shards."""

    def __init__(self, message: str, shards: Sequence[int] = ()) -> None:
        super().__init__(message)
        self.shards = tuple(shards)


def _shard_members(assignment: Sequence[int], workers: int) -> List[List[int]]:
    members: List[List[int]] = [[] for _ in range(workers)]
    for user_index, shard in enumerate(assignment):
        members[shard].append(user_index)
    return members


def _describe_shard(shard: int, members: Sequence[int]) -> str:
    """``shard 2 (13 users: u2,u5,u9,…)`` — the slice a failure took out."""
    if not members:
        return "shard {} (0 users)".format(shard)
    shown = ",".join("u{}".format(user) for user in members[:5])
    suffix = ",…" if len(members) > 5 else ""
    return "shard {} ({} users: {}{})".format(shard, len(members), shown, suffix)


# ======================================================================
# worker process
# ======================================================================
def _serve_shard(
    spec: Dict[str, object],
    shard: int,
    deployment: _ScaleDeployment,
    schedule: ArrivalSchedule,
    sink: Optional[Callable[[Dict[str, object]], None]],
) -> Dict[str, object]:
    """Serve one shard's schedule with ``run_scale``'s arguments ``spec``;
    returns the shard's fold-back payload (row, registry, trace ring).

    The one place the fleet serves: the inline ``workers=1`` path and
    every worker process call it the same way.
    """
    row = run_scale(
        **dict(
            spec,
            arrival_schedule=schedule,
            collect_latencies=True,
            shard=shard,
            heartbeat_sink=sink,
            _deployment=deployment,
        )
    )
    return {
        "row": row,
        "registry": PERF.registry.snapshot(),
        "trace_records": TRACER.records() if spec["trace_sample"] is not None else [],
    }


def _deploy(spec: Dict[str, object]) -> _ScaleDeployment:
    """The deployment ``run_scale`` would build from ``spec``."""
    return _ScaleDeployment(**{name: spec[name] for name in _DEPLOY_ARGS})


def _fleet_worker(job: Dict[str, object], barrier, results) -> None:
    """One shard's serve loop: build, sync, serve, send ONE payload.

    Any exception lands on the result queue as an ``("error", shard,
    traceback)`` message and aborts the barrier so the supervisor wakes
    immediately instead of sleeping out its timeout.  ``inject_failure``
    is the robustness-test hook: ``crash`` dies silently (no message at
    all), ``raise`` fails with a traceback, ``hang`` sleeps through the
    supervisor's deadline.
    """
    shard = job["shard"]
    try:
        failure = job["inject_failure"] or {}
        mode = failure.get("mode") if failure.get("shard") == shard else None
        if mode == "crash":
            os._exit(3)
        if mode == "raise":
            raise RuntimeError("injected failure on shard {}".format(shard))
        spec = job["spec"]
        deployment = _deploy(spec)
        if mode == "hang":
            # repro-lint: disable=det-wall-clock -- robustness-test hook: the injected hang must outlast the supervisor's real deadline, so a host sleep is the point
            time.sleep(3600.0)
        try:
            barrier.wait(job["worker_timeout"])
        except threading.BrokenBarrierError:
            # another worker failed (it aborted the barrier) or the
            # supervisor timed the startup out — this worker is only a
            # secondary victim: exit clean so diagnosis blames the
            # shard that actually broke, not this one
            raise SystemExit(0)
        sink = None
        if spec["heartbeat_interval"] is not None:
            # heartbeats piggyback on the one existing supervisor
            # channel: compact ("hb", shard, payload) messages between
            # the serve start and the final ("ok", shard, payload)
            def sink(payload):
                results.put(("hb", shard, payload))

        payload = _serve_shard(spec, shard, deployment, job["schedule"], sink)
        results.put(("ok", shard, payload))
    except BaseException as error:
        if isinstance(error, SystemExit) and error.code == 0:
            raise
        try:
            results.put(("error", shard, traceback.format_exc()))
        finally:
            try:
                barrier.abort()
            except Exception:
                pass
        raise SystemExit(1)


# ======================================================================
# supervisor
# ======================================================================
class HeartbeatTracker:
    """Supervisor-side fleet liveness state, fed by ``hb`` messages.

    Each heartbeat carries one shard's virtual clock, completed-request
    count, learn-queue depth, and windowed readings.  The tracker keeps
    the latest per shard, measures **skew** (the spread between the
    fastest and slowest shard's virtual clocks whenever every shard has
    reported), and flags **lagging** shards — a shard whose virtual
    clock trails the leader by more than ``lag_factor`` heartbeat
    intervals, or that has never heartbeated while the leader has sent
    several.  That surfaces a stuck worker *while serving*, long before
    the supervisor's ``worker_timeout`` turns it into a
    :class:`FleetWorkerError`.
    """

    def __init__(
        self,
        workers: int,
        interval_s: float,
        log=None,
        lag_factor: float = 2.0,
    ) -> None:
        self.workers = workers
        self.interval_s = interval_s
        self.log = log
        self.lag_factor = lag_factor
        self.per_shard: Dict[int, Dict[str, object]] = {}
        self.received = 0
        self.max_skew_s = 0.0
        self.lagging: set = set()

    def record(self, shard: int, payload: Dict[str, object]) -> None:
        entry = self.per_shard.setdefault(shard, {"count": 0})
        entry["count"] = int(entry["count"]) + 1
        entry["sim_now"] = payload.get("sim_now")
        entry["requests"] = payload.get("requests")
        entry["queue_depth"] = payload.get("queue_depth")
        entry["alerts"] = payload.get("alerts")
        entry["readings"] = payload.get("readings")
        self.received += 1
        self._update_lag()
        if self.log is not None:
            self.log(shard, payload, self)

    def _update_lag(self) -> None:
        clocks = {
            shard: float(entry["sim_now"])
            for shard, entry in self.per_shard.items()
            if entry.get("sim_now") is not None
        }
        if not clocks:
            return
        lead = max(clocks.values())
        if len(clocks) == self.workers and len(clocks) > 1:
            skew = lead - min(clocks.values())
            if skew > self.max_skew_s:
                self.max_skew_s = skew
        # recomputed from the current clocks, never latched: a shard
        # that trailed transiently (host scheduling, not a stuck
        # worker) drops off the list as soon as it catches back up
        threshold = self.lag_factor * self.interval_s
        lagging: set = set()
        for shard in range(self.workers):
            clock = clocks.get(shard)
            if clock is not None and lead - clock > threshold:
                lagging.add(shard)
            elif clock is None and lead > threshold:
                # never heartbeated while the leader moved well past
                # the first interval: silent from the start
                lagging.add(shard)
        self.lagging = lagging

    def summary(self) -> Dict[str, object]:
        return {
            "interval_s": self.interval_s,
            "received": self.received,
            "max_skew_s": self.max_skew_s,
            "lagging_shards": sorted(self.lagging),
            "per_shard": [
                self.per_shard.get(shard) for shard in range(self.workers)
            ],
        }


def _file_message(
    message: Tuple[str, int, object],
    collected: Dict[int, Dict],
    errors: Dict[int, str],
    heartbeats: Optional[HeartbeatTracker],
) -> None:
    """File one worker message: a payload, a heartbeat, or an error."""
    kind, shard, payload = message
    if kind == "ok":
        collected[shard] = payload
    elif kind == "hb":
        # mid-run liveness: fold the heartbeat immediately so a
        # lagging shard surfaces while the fleet is still serving
        if heartbeats is not None:
            heartbeats.record(shard, payload)
    else:
        errors[shard] = payload


def _drain_queue(
    results,
    collected: Dict[int, Dict],
    errors: Dict[int, str],
    heartbeats: Optional[HeartbeatTracker],
) -> None:
    """Pull whatever the result queue has right now (post-failure sweep)."""
    while True:
        try:
            message = results.get(timeout=0.2)
        except queue_module.Empty:
            return
        _file_message(message, collected, errors, heartbeats)


def _raise_worker_failure(
    errors: Dict[int, str],
    procs: Sequence,
    collected: Dict[int, Dict],
    members: Sequence[Sequence[int]],
    phase: str,
) -> None:
    """Turn whatever failure evidence exists into one FleetWorkerError."""
    if errors:
        shard = min(errors)
        raise FleetWorkerError(
            "fleet worker failed during {}: {} — worker traceback:\n{}".format(
                phase, _describe_shard(shard, members[shard]), errors[shard]
            ),
            shards=sorted(errors),
        )
    crashed = [
        shard
        for shard, proc in enumerate(procs)
        if shard not in collected and proc.exitcode not in (None, 0)
    ]
    if crashed:
        raise FleetWorkerError(
            "fleet worker crashed during {} (exitcode {}): {}".format(
                phase,
                procs[crashed[0]].exitcode,
                "; ".join(_describe_shard(s, members[s]) for s in crashed),
            ),
            shards=crashed,
        )
    hung = [
        shard
        for shard, proc in enumerate(procs)
        if shard not in collected and proc.is_alive()
    ]
    raise FleetWorkerError(
        "fleet worker hung past the {} deadline: {}".format(
            phase,
            "; ".join(_describe_shard(s, members[s]) for s in hung) or "(unknown)",
        ),
        shards=hung,
    )


def _monitor_procs(procs, barrier, stop: threading.Event) -> None:
    """Abort the start barrier as soon as any worker dies silently."""
    while not stop.is_set():
        for proc in procs:
            if proc.exitcode not in (None, 0):
                try:
                    barrier.abort()
                except Exception:
                    pass
                return
        stop.wait(0.05)


def _merge_int_tables(
    tables: Sequence[Optional[Dict[str, Dict[str, int]]]]
) -> Dict[str, Dict[str, int]]:
    """Sum nested ``{key: {field: int}}`` tables across shards."""
    merged: Dict[str, Dict[str, int]] = {}
    for table in tables:
        for key, cell in (table or {}).items():
            target = merged.setdefault(key, {})
            for field, value in cell.items():
                target[field] = target.get(field, 0) + value
    return merged


def run_fleet(
    users: int,
    duration: float,
    workers: int = 1,
    trace_path: Optional[str] = None,
    heartbeat_log=None,
    worker_timeout: float = DEFAULT_WORKER_TIMEOUT_S,
    prom_path: Optional[str] = None,
    inject_failure: Optional[Dict[str, object]] = None,
    **run_kwargs,
) -> Dict[str, object]:
    """Serve one seeded scale workload across ``workers`` proxy processes.

    ``run_kwargs`` are :func:`~repro.experiments.scale.run_scale`'s own
    arguments, bound against its signature once (an unknown name raises
    :class:`TypeError` before any worker starts) and handed to every
    shard as they are.  Per shard the fleet sets only the shard's share
    of ``max_entries_total``, its ``trace_seed``, its partition of the
    arrival schedule, and the plumbing (``collect_latencies``,
    ``shard``, ``heartbeat_sink``, the pre-built deployment).

    The supervisor consistent-hashes users onto shards, pre-draws the
    global arrival schedule with the run seed, partitions it per shard,
    and hands each worker its slice plus its own cache budget share.
    Workers build their deployments, meet on a barrier, serve, and send
    one batched payload back; the supervisor folds every payload into a
    single aggregate row whose shape matches ``run_scale``'s plus
    ``workers``, ``heartbeats``, ``fleet``, and ``shards`` keys.

    ``workers=1`` serves inline (no subprocess) replaying the identity
    partition — byte-equivalent to the serial harness under the same
    seed, which the differential tests pin.  For ``workers > 1`` the
    fleet wall clock runs from the post-barrier instant to the last
    payload collected, so requests-per-wall-second pays for fold-back
    IPC too.

    ``worker_timeout`` bounds both the start barrier and the serve
    phase; a worker that crashes, raises, or hangs surfaces as
    :class:`FleetWorkerError` naming the lost shard's user slice.
    ``inject_failure`` (``{"shard": s, "mode": "crash"|"raise"|"hang"}``)
    exists for the robustness tests.  ``trace_path`` receives the
    trace rings of every shard, folded; ``prom_path`` the folded
    registry.

    The live telemetry plane (``telemetry`` / ``slo_config`` /
    ``heartbeat_interval``, see :func:`run_scale`) runs *per shard*;
    with ``heartbeat_interval`` set, every worker additionally ships
    compact windowed snapshots over the result queue mid-run, which the
    supervisor folds into a :class:`HeartbeatTracker` (per-shard
    liveness, virtual-clock skew, lagging-shard flags; ``heartbeat_log``
    observes each one as it arrives).  The aggregate row then carries
    ``live`` (windows merged across shards with
    :meth:`LiveWindows.merge` — the same bucket-aligned fold-back
    semantics as ``registry.merge``), ``slo`` (the merged-window
    verdict plus per-shard passes), ``backpressure`` (summed actuation
    counters, per-proxy budgets and thresholds in shard order), and
    ``heartbeats`` (the tracker summary).
    """
    bound = _RUN_SIGNATURE.bind(users, duration, **run_kwargs)
    bound.apply_defaults()
    spec = dict(bound.arguments)
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if users < workers:
        raise ValueError(
            "need at least one user per worker (users={}, workers={})".format(
                users, workers
            )
        )
    if trace_path is not None and spec["trace_sample"] is None:
        # a trace file arms tracing at full rate, as it does in run_scale
        spec["trace_sample"] = 1.0
    heartbeats: Optional[HeartbeatTracker] = None
    if spec["heartbeat_interval"] is not None:
        heartbeats = HeartbeatTracker(
            workers, spec["heartbeat_interval"], log=heartbeat_log
        )

    # the plan deployment provides per-app step counts for the schedule
    # draw; with one worker it also serves the workload inline
    plan = _deploy(spec)
    apps = spec["apps"]
    user_app = [apps[index % len(apps)] for index in range(users)]
    schedule = plan.arrival_schedule(
        user_app, duration, spec["rate_per_user"], spec["seed"],
        warm_start=spec["warm_start"],
    )
    assignment = shard_users(users, workers)
    members = _shard_members(assignment, workers)
    shard_schedules = partition_schedule(schedule, assignment, workers)
    shard_specs = [dict(spec) for _ in range(workers)]
    for shard, shard_spec in enumerate(shard_specs):
        if spec["max_entries_total"] is not None:
            # apportion the global entry budget by shard population so
            # the fleet's total budget matches the serial run's
            shard_spec["max_entries_total"] = max(
                1, round(spec["max_entries_total"] * len(members[shard]) / users)
            )
        if workers > 1:
            # one worker keeps the run's seed: its sample set is the
            # serial run's
            shard_spec["trace_seed"] = shard_seed(spec["trace_seed"], shard)

    if workers == 1:
        sink = None if heartbeats is None else functools.partial(heartbeats.record, 0)
        payloads = {0: _serve_shard(shard_specs[0], 0, plan, shard_schedules[0], sink)}
        wall_s = float(payloads[0]["row"]["wall_s"])
    else:
        jobs = [
            {
                "shard": shard,
                "spec": shard_specs[shard],
                "schedule": shard_schedules[shard],
                "worker_timeout": worker_timeout,
                "inject_failure": inject_failure,
            }
            for shard in range(workers)
        ]
        payloads, wall_s = _run_worker_pool(jobs, members, worker_timeout, heartbeats)

    return _aggregate(
        payloads,
        members,
        spec,
        wall_s=wall_s,
        worker_timeout=worker_timeout,
        trace_path=trace_path,
        prom_path=prom_path,
        schedule_events=len(schedule),
        heartbeats=heartbeats,
    )


def _run_worker_pool(
    jobs: Sequence[Dict[str, object]],
    members: Sequence[Sequence[int]],
    worker_timeout: float,
    heartbeats: Optional[HeartbeatTracker],
) -> Tuple[Dict[int, Dict], float]:
    """Spawn, synchronize, and collect the worker fleet (workers > 1)."""
    workers = len(jobs)
    try:
        context = multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX fallback
        context = multiprocessing.get_context()
    results = context.Queue()
    barrier = context.Barrier(workers + 1)

    procs = [
        context.Process(
            target=_fleet_worker, args=(job, barrier, results), daemon=True
        )
        for job in jobs
    ]
    collected: Dict[int, Dict] = {}
    errors: Dict[int, str] = {}
    stop_monitor = threading.Event()
    monitor = threading.Thread(
        target=_monitor_procs, args=(procs, barrier, stop_monitor), daemon=True
    )
    try:
        for proc in procs:
            proc.start()
        monitor.start()
        try:
            barrier.wait(worker_timeout)
        except threading.BrokenBarrierError:
            _drain_queue(results, collected, errors, heartbeats)
            _raise_worker_failure(errors, procs, collected, members, "startup")
        wall_started = time.perf_counter()
        deadline = wall_started + worker_timeout
        while len(collected) < workers:
            try:
                message = results.get(timeout=0.25)
            except queue_module.Empty:
                crashed_silently = any(
                    shard not in collected and proc.exitcode not in (None, 0)
                    for shard, proc in enumerate(procs)
                )
                if crashed_silently or time.perf_counter() > deadline:
                    _drain_queue(results, collected, errors, heartbeats)
                    if len(collected) == workers:
                        break
                    _raise_worker_failure(
                        errors, procs, collected, members, "serve"
                    )
                continue
            _file_message(message, collected, errors, heartbeats)
            if errors:
                _drain_queue(results, collected, errors, heartbeats)
                _raise_worker_failure(errors, procs, collected, members, "serve")
        wall_s = time.perf_counter() - wall_started
        # heartbeats racing the final ok messages may still sit queued
        _drain_queue(results, collected, errors, heartbeats)
    finally:
        stop_monitor.set()
        for proc in procs:
            if proc.is_alive():
                proc.terminate()
        for proc in procs:
            proc.join(timeout=5.0)
    return collected, wall_s


def _aggregate(
    payloads: Dict[int, Dict],
    members: Sequence[Sequence[int]],
    spec: Dict[str, object],
    wall_s: float,
    worker_timeout: float,
    trace_path: Optional[str],
    prom_path: Optional[str],
    schedule_events: int,
    heartbeats: Optional[HeartbeatTracker],
) -> Dict[str, object]:
    """Fold worker payloads into one run_scale-shaped aggregate row.

    Shard 0's row is the template: its configuration keys are every
    shard's, :data:`SUMMED_KEYS` are summed, :func:`finish_row`
    recomputes the derived keys over all shards' latencies, and only
    the tables, trace, live plane and fleet blocks fold here.
    """
    workers = len(members)
    rows = [payloads[shard]["row"] for shard in range(workers)]

    merged = MetricRegistry()
    for shard in range(workers):
        merged.merge(payloads[shard]["registry"])

    aggregate = dict(rows[0])
    del aggregate["latencies_s"]
    for key in SUMMED_KEYS:
        aggregate[key] = sum(int(row[key]) for row in rows)
    aggregate["wall_s"] = wall_s
    # shard rows report their share of the global entry budget
    aggregate["max_entries_total"] = spec["max_entries_total"]
    finish_row(aggregate, [value for row in rows for value in row["latencies_s"]])

    by_signature = _merge_int_tables([row["prefetch_by_signature"] for row in rows])

    expiration_rows = [row["expiration"] for row in rows if row["expiration"]]
    expiration = None
    if expiration_rows:
        expiration = {
            key: sum(int(cell[key]) for cell in expiration_rows)
            for key in expiration_rows[0]
        }

    history = None
    if any(row["history"] for row in rows):
        history = _merge_int_tables([row["history"] for row in rows])

    trace_stats: Optional[Dict[str, object]] = None
    if spec["trace_sample"] is not None:
        shard_stats = [row["trace"] or {} for row in rows]
        trace_stats = {
            key: sum(int(stats.get(key, 0)) for stats in shard_stats)
            for key in ("started", "sampled", "finished", "dropped")
        }
        trace_stats["sample_rate"] = spec["trace_sample"]
        trace_stats["capacity"] = TRACE_CAPACITY
        # the supervisor ring holds every worker's batch: capacity is
        # the fleet-wide sum so absorption itself never drops records
        TRACER.configure(
            sample_rate=spec["trace_sample"],
            capacity=TRACE_CAPACITY * workers,
            seed=spec["trace_seed"],
        )
        absorbed = 0
        for shard in range(workers):
            absorbed += TRACER.absorb(
                payloads[shard]["trace_records"],
                prefix="w{}".format(shard),
                skip_kinds=("summary",),
            )
        append_summary_record(by_signature, workers=workers)
        trace_stats["absorbed"] = absorbed
        trace_stats["buffered"] = len(TRACER.records())
        if trace_path is not None:
            trace_stats["exported"] = TRACER.export_jsonl(trace_path)
            trace_stats["path"] = trace_path

    # ---- live telemetry plane fold-back -----------------------------
    # Bucket indices are absolute (int(now // width)), so every shard's
    # windows share one virtual-time grid and merge bucket-wise exactly
    # like registry.merge — order-independent and associative.
    present = [row["live"] for row in rows if row["live"]]
    live_agg: Optional[Dict[str, object]] = None
    slo_agg: Optional[Dict[str, object]] = None
    if present:
        windows = LiveWindows.from_snapshot(present[0]["snapshot"])
        for live in present[1:]:
            windows.merge(live["snapshot"])
        live_now = max(float(live["readings"]["sim_now"]) for live in present)
        live_agg = {
            "ticks": sum(int(live["ticks"]) for live in present),
            "heartbeats_sent": sum(int(live["heartbeats_sent"]) for live in present),
            "alerts": sum(int(live["alerts"]) for live in present),
            "readings": standard_readings(windows, live_now),
            "snapshot": windows.snapshot(),
        }
        if spec["slo_config"] is not None:
            # the fleet verdict re-runs the engine over the MERGED
            # windows (burn rates over fleet-wide bad/total), while
            # alert counts and per-shard passes come from the shards —
            # the supervisor never saw the mid-run transitions
            shard_reports = [row.get("slo") for row in rows]
            slo_agg = SloEngine(spec["slo_config"]).report(windows, live_now)
            slo_agg["alerts"] = sum(
                int((report or {}).get("alerts", 0)) for report in shard_reports
            )
            slo_agg["shard_passed"] = [
                bool((report or {}).get("passed", True))
                for report in shard_reports
            ]
            slo_agg["passed"] = bool(slo_agg["passed"]) and all(
                slo_agg["shard_passed"]
            )
    # actuation counters add up; per-proxy lists (budgets, thresholds)
    # concatenate in shard order
    bp_rows = [row["backpressure"] for row in rows if row["backpressure"]]
    bp_agg: Optional[Dict[str, object]] = None
    if bp_rows:
        bp_agg = {
            key: (
                [item for stats in bp_rows for item in stats[key]]
                if isinstance(value, list)
                else sum(int(stats[key]) for stats in bp_rows)
            )
            for key, value in bp_rows[0].items()
        }

    if prom_path is not None:
        merged.dump_prometheus(prom_path)

    aggregate.update(
        workers=workers,
        prefetch_by_signature=by_signature,
        expiration=expiration,
        history=history,
        stage_latency_us=stage_latency_from_registry(merged),
        miss_causes=miss_causes_from_counters(merged.counters),
        trace=trace_stats,
        live=live_agg,
        slo=slo_agg,
        backpressure=bp_agg,
        heartbeats=heartbeats.summary() if heartbeats is not None else None,
        fleet={
            "replicas": DEFAULT_REPLICAS,
            "hash": "blake2b-64",
            "worker_timeout_s": worker_timeout,
            "schedule_events": schedule_events,
            "shard_users": [len(shard_members) for shard_members in members],
            "shard_requests": [int(row["requests"]) for row in rows],
            "shard_wall_s": [float(row["wall_s"]) for row in rows],
            "supervisor_wall_s": wall_s,
        },
        shards=[
            {
                "shard": shard,
                "users": len(members[shard]),
                "requests": int(rows[shard]["requests"]),
                "hit_rate": float(rows[shard]["hit_rate"]),
                "wall_s": float(rows[shard]["wall_s"]),
                "sim_events": int(rows[shard]["sim_events"]),
                "peak_rss_bytes": int(rows[shard]["peak_rss_bytes"]),
            }
            for shard in range(workers)
        ],
    )
    return aggregate


def format_fleet_table(rows: Sequence[Dict[str, object]]) -> str:
    """Aligned worker-count sweep table (BENCH + CI artifact)."""
    if not rows:
        return "(no fleet rows)"
    first = rows[0]
    lines = [
        "fleet scale-out: users={} duration={}s rate={}/s apps={} seed={}".format(
            first["users"],
            first["duration_s"],
            first["rate_per_user"],
            ",".join(first["apps"]),
            first["seed"],
        ),
        "{:<8} {:>9} {:>11} {:>11} {:>9} {:>8} {:>9}".format(
            "workers", "requests", "req/wall_s", "us/request", "hit", "p50_ms",
            "speedup",
        ),
    ]
    base = None
    for row in rows:
        rate = float(row["requests_per_wall_s"])
        if base is None:
            base = rate or None
        lines.append(
            "{:<8} {:>9} {:>11.0f} {:>11.1f} {:>7.1f}% {:>8.1f} {:>8}".format(
                row["workers"],
                row["requests"],
                rate,
                float(row["per_request_wall_us"]),
                100.0 * float(row["hit_rate"]),
                float(row["latency_p50_ms"]),
                "{:.2f}x".format(rate / base) if base else "-",
            )
        )
    return "\n".join(lines)
