"""Tests for the multi-process sharded proxy fleet.

Three layers: the sharding primitives (hash ring, schedule partition),
the differential oracle (``run_fleet(workers=1)`` must be
byte-equivalent to ``run_scale`` under the same seed — same arrivals,
same counters, same fold-back), and the supervisor's failure surface
(crashed / raising / hung workers raise :class:`FleetWorkerError`
naming the lost shard instead of deadlocking).
"""

import multiprocessing
import os

import pytest

from repro.experiments.fleet import (
    ConsistentHashRing,
    FleetWorkerError,
    HeartbeatTracker,
    _merge_int_tables,
    format_fleet_table,
    partition_schedule,
    run_fleet,
    shard_seed,
    shard_users,
)
from repro.experiments.scale import build_arrival_schedule, run_scale

#: row keys that must be identical between the serial harness and the
#: one-worker fleet (everything deterministic; wall-clock keys excluded)
DETERMINISTIC_KEYS = (
    "requests",
    "requests_sent",
    "sim_events",
    "hit_rate",
    "served_prefetched",
    "forwarded",
    "prefetch_issued",
    "peak_cache_entries",
    "final_cache_entries",
    "cache_stored",
    "cache_expired_evictions",
    "cache_lru_evictions",
    "cache_wheel_purged",
    "prefetch_wasted",
    "skipped_admission",
    "latency_p50_ms",
    "latency_p95_ms",
    "latency_p99_ms",
    "prefetch_by_signature",
    "miss_causes",
    "expiration",
    "history",
)

#: the serial row's host-cost keys: they measure the machine, so the
#: differential oracle compares every other key of the row
WALL_CLOCK_KEYS = {
    "wall_s",
    "per_request_wall_us",
    "requests_per_wall_s",
    "sim_events_per_wall_s",
    "peak_rss_bytes",
    "stage_latency_us",
}


# ----------------------------------------------------------------------
# consistent-hash sharding
# ----------------------------------------------------------------------
def test_ring_deterministic_across_instances():
    first = ConsistentHashRing(4)
    second = ConsistentHashRing(4)
    keys = ["u{}".format(index) for index in range(200)]
    assert [first.shard_for(k) for k in keys] == [second.shard_for(k) for k in keys]


def test_ring_covers_all_shards_roughly_evenly():
    assignment = shard_users(2000, 4)
    counts = [assignment.count(shard) for shard in range(4)]
    assert all(count > 0 for count in counts)
    # virtual nodes keep the largest shard within ~2x of the mean
    assert max(counts) < 2 * (2000 / 4)


def test_ring_minimal_remap_on_grow():
    before = shard_users(1000, 4)
    after = shard_users(1000, 5)
    moved = sum(1 for a, b in zip(before, after) if a != b)
    # consistent hashing moves ~1/5 of the keys; a modulo hash would
    # move ~4/5.  Allow generous slack over the ideal 200.
    assert moved < 450


def test_ring_rejects_bad_sizes():
    with pytest.raises(ValueError):
        ConsistentHashRing(0)
    with pytest.raises(ValueError):
        ConsistentHashRing(2, replicas=0)


def test_shard_seed_distinct_and_stable():
    seeds = {shard_seed(7, shard) for shard in range(8)}
    assert len(seeds) == 8
    assert shard_seed(7, 3) == shard_seed(7, 3)


# ----------------------------------------------------------------------
# schedule partitioning
# ----------------------------------------------------------------------
def _tiny_schedule(users=12, duration=5.0):
    user_app = ["wish" if i % 2 == 0 else "doordash" for i in range(users)]
    return build_arrival_schedule(
        users, duration, 0.5, seed=3, step_counts={"wish": 9, "doordash": 9},
        user_app=user_app,
    )


def test_partition_identity_for_one_shard():
    schedule = _tiny_schedule()
    [part] = partition_schedule(schedule, [0] * schedule.users, 1)
    assert part.events == schedule.events
    assert part.terminal_dt == schedule.terminal_dt


def test_partition_preserves_global_arrival_instants():
    schedule = _tiny_schedule()
    assignment = shard_users(schedule.users, 3)
    parts = partition_schedule(schedule, assignment, 3)
    assert sum(len(p.events) for p in parts) == len(schedule.events)

    # replaying each shard's deltas must reproduce the exact global
    # arrival instant of every event it owns (same left-fold order)
    global_instants = {}
    now = 0.0
    for index, (dt, user, _) in enumerate(schedule.events):
        now = now + dt
        global_instants[index] = (now, user)
    remaining = sorted(global_instants.values())
    reproduced = []
    for part in parts:
        now = 0.0
        for dt, user, _ in part.events:
            now = now + dt
            reproduced.append((now, user))
    reproduced.sort()
    # cross-shard delta accumulation reassociates float additions, so
    # instants match to rounding (the workers=1 identity case is exact)
    for (got_t, got_u), (want_t, want_u) in zip(reproduced, remaining):
        assert got_u == want_u
        assert got_t == pytest.approx(want_t, rel=1e-12)
    # every shard's horizon ends at the same instant as the global one
    for part in parts:
        horizon = sum(dt for dt, _, _ in part.events) + part.terminal_dt
        assert horizon == pytest.approx(
            sum(dt for dt, _, _ in schedule.events) + schedule.terminal_dt
        )


# ----------------------------------------------------------------------
# differential oracle: one-worker fleet == serial harness
# ----------------------------------------------------------------------
def test_fleet_one_worker_matches_serial():
    kwargs = dict(users=24, duration=6.0, seed=11, max_entries_per_user=16)
    serial = run_scale(**kwargs)
    fleet = run_fleet(workers=1, **kwargs)
    # every key the serial row has, so a key the fold forgets fails here
    for key in set(serial) - WALL_CLOCK_KEYS:
        assert fleet[key] == serial[key], key
    assert fleet["workers"] == 1
    assert fleet["fleet"]["shard_users"] == [24]
    assert len(fleet["shards"]) == 1


def test_fleet_one_worker_folds_the_whole_live_plane():
    kwargs = dict(
        users=24, duration=4.0, seed=11, max_entries_per_user=16, telemetry=True
    )
    serial = run_scale(**kwargs)
    fleet = run_fleet(workers=1, **kwargs)
    # the backpressure fold keeps every key the serial row reports,
    # the per-proxy admission thresholds included
    assert fleet["backpressure"] == serial["backpressure"]
    for key in ("ticks", "heartbeats_sent", "alerts"):
        assert fleet["live"][key] == serial["live"][key], key


def test_signature_cells_fold_back_by_addition():
    shard_a = {"a#0": {"issued": 4, "hits": 1, "wasted": 2, "queue_wait_ms": 40}}
    shard_b = {
        "a#0": {"issued": 2, "hits": 2, "wasted": 0, "queue_wait_ms": 7},
        "(history)": {"issued": 3},
    }
    assert _merge_int_tables([shard_a, None, shard_b]) == {
        "a#0": {"issued": 6, "hits": 3, "wasted": 2, "queue_wait_ms": 47},
        "(history)": {"issued": 3},
    }


def test_fleet_two_workers_reproducible_and_preserves_arrivals():
    kwargs = dict(users=24, duration=6.0, seed=11, max_entries_per_user=16)
    serial = run_scale(**kwargs)
    first = run_fleet(workers=2, worker_timeout=120.0, **kwargs)
    second = run_fleet(workers=2, worker_timeout=120.0, **kwargs)
    # the partitioned schedule preserves the global arrival process
    assert first["requests_sent"] == serial["requests_sent"]
    assert first["requests"] == serial["requests"]
    # and the fleet is deterministic run to run
    for key in DETERMINISTIC_KEYS:
        assert first[key] == second[key], key
    assert first["fleet"]["shard_users"] == [len(m) for m in (
        [u for u in range(24) if shard_users(24, 2)[u] == 0],
        [u for u in range(24) if shard_users(24, 2)[u] == 1],
    )]
    assert sum(first["fleet"]["shard_requests"]) == first["requests"]
    # folded metrics arrive as one aggregate: per-stage latency table
    # and miss causes exist just like the serial row's
    assert set(first["miss_causes"]) == set(serial["miss_causes"])
    assert first["stage_latency_us"]
    assert all(
        isinstance(cell["queue_wait_ms"], int)
        for cell in first["prefetch_by_signature"].values()
    )


def test_fleet_validates_arguments():
    with pytest.raises(ValueError):
        run_fleet(10, 1.0, workers=0)
    with pytest.raises(ValueError):
        run_fleet(2, 1.0, workers=4)


def test_fleet_rejects_unknown_run_argument_before_forking():
    # run_fleet forwards run_scale's arguments: a misspelled one must
    # fail in the supervisor, not inside every worker
    with pytest.raises(TypeError):
        run_fleet(12, 1.0, workers=2, bogus=1)
    assert multiprocessing.active_children() == []


def test_rows_record_the_host_core_count():
    kwargs = dict(users=6, duration=2.0, seed=3)
    assert run_scale(**kwargs)["cores"] == os.cpu_count()
    assert run_fleet(workers=2, worker_timeout=120.0, **kwargs)["cores"] == (
        os.cpu_count()
    )


# ----------------------------------------------------------------------
# robustness: crashed / raising / hung workers
# ----------------------------------------------------------------------
def test_fleet_surfaces_worker_exception():
    with pytest.raises(FleetWorkerError) as excinfo:
        run_fleet(
            12, 1.0, workers=2, seed=3, worker_timeout=30.0,
            inject_failure={"shard": 1, "mode": "raise"},
        )
    assert excinfo.value.shards == (1,)
    assert "shard 1" in str(excinfo.value)
    assert "users" in str(excinfo.value)  # names the lost user slice
    assert "injected failure" in str(excinfo.value)  # worker traceback


def test_fleet_surfaces_worker_crash():
    with pytest.raises(FleetWorkerError) as excinfo:
        run_fleet(
            12, 1.0, workers=2, seed=3, worker_timeout=30.0,
            inject_failure={"shard": 0, "mode": "crash"},
        )
    assert excinfo.value.shards == (0,)
    assert "exitcode" in str(excinfo.value)


def test_fleet_surfaces_hung_worker_without_deadlock():
    with pytest.raises(FleetWorkerError) as excinfo:
        run_fleet(
            12, 1.0, workers=2, seed=3, worker_timeout=5.0,
            inject_failure={"shard": 1, "mode": "hang"},
        )
    assert excinfo.value.shards == (1,)
    assert "hung" in str(excinfo.value)


# ----------------------------------------------------------------------
# reporting
# ----------------------------------------------------------------------
def test_format_fleet_table():
    rows = [
        run_fleet(users=24, duration=4.0, seed=5, workers=1),
    ]
    table = format_fleet_table(rows)
    assert "workers" in table and "req/wall_s" in table
    assert "1.00x" in table
    assert format_fleet_table([]) == "(no fleet rows)"


def test_cli_scale_workers(capsys, tmp_path):
    from repro.cli import main

    out_path = tmp_path / "fleet.json"
    code = main([
        "scale", "--users", "24", "--duration", "4", "--workers", "2",
        "--seed", "5", "--output", str(out_path),
    ])
    captured = capsys.readouterr()
    assert code == 0
    assert "fleet: 2 workers" in captured.out
    assert out_path.exists()


def test_cli_scale_rejects_bad_worker_combos(capsys):
    from repro.cli import main

    assert main(["scale", "--users", "10", "--workers", "0"]) == 2
    assert main(["scale", "--users", "10", "--workers", "2",
                 "--compare-strategies"]) == 2
    assert main(["scale", "--users", "2", "--workers", "4"]) == 2
    capsys.readouterr()


# ----------------------------------------------------------------------
# live telemetry plane: heartbeats + supervisor fold-back
# ----------------------------------------------------------------------
def test_heartbeat_tracker_flags_skew_and_lagging_shards():
    tracker = HeartbeatTracker(workers=2, interval_s=0.5)
    tracker.record(0, {"sim_now": 0.5, "requests": 10, "queue_depth": 0})
    tracker.record(0, {"sim_now": 1.0, "requests": 21, "queue_depth": 0})
    # shard 1 has never heartbeated while the leader moved well past
    # the lag threshold (2 intervals): silent from the start
    tracker.record(0, {"sim_now": 2.0, "requests": 40, "queue_depth": 1})
    assert tracker.lagging == {1}
    tracker.record(1, {"sim_now": 0.5, "requests": 9, "queue_depth": 0})
    summary = tracker.summary()
    assert summary["received"] == 4
    assert summary["max_skew_s"] == pytest.approx(1.5)
    assert summary["lagging_shards"] == [1]
    assert summary["per_shard"][0]["count"] == 3
    assert summary["per_shard"][1]["requests"] == 9


def test_heartbeat_tracker_no_lag_when_shards_keep_pace():
    tracker = HeartbeatTracker(workers=2, interval_s=0.5)
    for tick in (0.5, 1.0, 1.5):
        tracker.record(0, {"sim_now": tick})
        tracker.record(1, {"sim_now": tick})
    summary = tracker.summary()
    assert summary["lagging_shards"] == []
    # shards report in turn, so the observed spread never exceeds the
    # heartbeat interval itself
    assert summary["max_skew_s"] <= 0.5


def test_fleet_heartbeats_fold_back_mid_run():
    seen = []

    def log(shard, payload, tracker):
        seen.append((shard, payload["sim_now"], payload["requests"]))

    row = run_fleet(
        24, 4.0, workers=2, seed=11, max_entries_per_user=16,
        worker_timeout=120.0, heartbeat_interval=1.0, heartbeat_log=log,
    )
    # every shard shipped windowed snapshots while serving
    assert {shard for shard, _, _ in seen} == {0, 1}
    hb = row["heartbeats"]
    assert hb["received"] == len(seen) == row["live"]["heartbeats_sent"]
    assert hb["lagging_shards"] == []
    assert all(entry["count"] >= 1 for entry in hb["per_shard"])
    # the merged windows cover the whole fleet: the windowed request
    # count at end of run equals the aggregate completed-request count
    assert row["live"]["readings"]["requests"] == row["requests"]
    assert row["live"]["ticks"] > 0


def test_fleet_one_worker_telemetry_matches_multiworker_merge():
    # admission off: with the gate on, each shard learns yields from its
    # own users, so what gets prefetched depends on the sharding
    kwargs = dict(
        users=24, duration=4.0, seed=11, max_entries_per_user=16,
        admission_threshold=0.0,
    )
    one = run_fleet(workers=1, telemetry=True, **kwargs)
    two = run_fleet(
        workers=2, telemetry=True, worker_timeout=120.0, **kwargs
    )
    # sharding changes where a user is served, never when: the merged
    # rolling windows must agree with the single-process plane
    for key in ("requests", "hit_rate", "overflow", "wasted"):
        assert two["live"]["readings"][key] == one["live"]["readings"][key]


def test_fleet_admission_on_windows_match_shard_totals():
    kwargs = dict(users=24, duration=4.0, seed=11, max_entries_per_user=16)
    one = run_fleet(workers=1, telemetry=True, **kwargs)
    two = run_fleet(
        workers=2, telemetry=True, worker_timeout=120.0, **kwargs
    )
    for run in (one, two):
        # the gate acted, and the merged windows account for exactly
        # what this run's shards did
        assert run["skipped_admission"] > 0
        readings = run["live"]["readings"]
        assert readings["requests"] == sum(run["fleet"]["shard_requests"])
        assert readings["wasted"] == run["prefetch_wasted"]
        assert readings["overflow"] == run["learn_queue_overflows"]
    # what reaches the proxy does not depend on the sharding
    for key in ("requests", "overflow"):
        assert two["live"]["readings"][key] == one["live"]["readings"][key]


def test_telemetry_plane_does_not_perturb_the_workload():
    kwargs = dict(users=24, duration=4.0, seed=11, max_entries_per_user=16)
    plain = run_scale(**kwargs)
    live = run_scale(telemetry=True, **kwargs)
    # sim_events differs (the telemetry tick process adds events); every
    # workload outcome must be byte-identical
    for key in DETERMINISTIC_KEYS:
        if key == "sim_events":
            continue
        assert live[key] == plain[key], key
    assert live["live"] is not None and plain.get("live") is None
