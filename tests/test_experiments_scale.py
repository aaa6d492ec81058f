"""Tests for the ``repro scale`` load harness."""

import gc
import json

import pytest

from repro.cli import main
from repro.experiments.scale import (
    DEFAULT_APPS,
    _ScaleDeployment,
    record_session_template,
    run_scale,
)
from repro.proxy.cache import CacheEntry
from repro.proxy.instances import RequestInstance


def test_record_session_template_yields_replayable_requests():
    template = record_session_template("wish")
    assert len(template) > 1
    # independent copies: mutating one replay must not poison another
    assert template[0] is not template[0].copy()
    methods = {request.method for request in template}
    assert "GET" in methods


def test_run_scale_reports_consistent_metrics():
    row = run_scale(users=10, duration=4.0, seed=3, rate_per_user=0.5)
    assert row["users"] == 10
    assert row["requests"] == row["requests_sent"] > 0
    assert row["served_prefetched"] + row["forwarded"] >= row["requests"]
    assert 0.0 <= row["hit_rate"] <= 1.0
    assert row["wall_s"] > 0.0
    assert row["sim_events"] > row["requests"]
    assert row["latency_p50_ms"] <= row["latency_p95_ms"] <= row["latency_p99_ms"]
    assert row["peak_cache_entries"] >= row["final_cache_entries"] >= 0
    assert row["peak_rss_bytes"] > 0
    assert row["cache_stored"] > 0


def test_run_scale_is_deterministic_in_virtual_metrics():
    first = run_scale(users=8, duration=3.0, seed=11)
    second = run_scale(users=8, duration=3.0, seed=11)
    for key in (
        "requests",
        "served_prefetched",
        "forwarded",
        "prefetch_issued",
        "latency_p99_ms",
        "sim_events",
        "cache_stored",
    ):
        assert first[key] == second[key], key
    # pinned from the live-drawn arrival generator this harness used
    # before every run pre-drew its schedule: the pre-drawn path must
    # reproduce it exactly, cold and warm-started
    warm = run_scale(users=8, duration=3.0, seed=11, warm_start=True)
    pinned = {
        "cold": (first, {
            "requests_sent": 14,
            "requests": 14,
            "latency_p50_ms": 254.64095999999986,
            "latency_p99_ms": 573.3404672000004,
            "hit_rate": 0.0,
            "prefetch_issued": 202,
            "cache_stored": 202,
        }),
        "warm": (warm, {
            "requests_sent": 14,
            "requests": 14,
            "latency_p50_ms": 336.46654795282535,
            "latency_p99_ms": 573.3404672000005,
            "hit_rate": 0.2857142857142857,
            "prefetch_issued": 1619,
            "cache_stored": 1619,
        }),
    }
    for cell, (row, expected) in pinned.items():
        for key, value in expected.items():
            assert row[key] == value, (cell, key)


def test_run_scale_per_user_bound_caps_cache():
    row = run_scale(users=6, duration=5.0, seed=0, max_entries_per_user=4)
    assert row["peak_cache_entries"] <= 6 * 4
    assert row["cache_lru_evictions"] > 0


def test_run_scale_retains_only_live_entries_and_instances():
    """A bounded cold cell keeps exactly what its structures account
    for: no evicted cache entry and no finished request instance stays
    reachable after the run."""
    gc.collect()
    # hold the objects alive before the run so their ids stay unique
    before = {
        id(obj): obj
        for obj in gc.get_objects()
        if isinstance(obj, (CacheEntry, RequestInstance))
    }
    deployment = _ScaleDeployment(DEFAULT_APPS, max_entries_per_user=4)
    row = run_scale(
        users=200,
        duration=2.0,
        seed=1,
        max_entries_per_user=4,
        _deployment=deployment,
    )
    assert row["cache_lru_evictions"] > 0
    gc.collect()
    entries = instances = 0
    for obj in gc.get_objects():
        if id(obj) in before:
            continue
        if isinstance(obj, CacheEntry):
            entries += 1
        elif isinstance(obj, RequestInstance):
            instances += 1
    proxies = [proxy for _, proxy in deployment.multi._apps]
    assert entries == sum(len(proxy.cache) for proxy in proxies)
    assert instances <= sum(
        proxy.learner.pending_count
        + proxy.prefetcher.waiting
        + proxy.prefetcher._active
        for proxy in proxies
    )


def test_run_scale_rejects_empty_population():
    with pytest.raises(ValueError):
        run_scale(users=0, duration=1.0)


def test_cli_scale_smoke(tmp_path, capsys):
    output = tmp_path / "scale.json"
    code = main(
        [
            "scale",
            "--users", "5", "10",
            "--duration", "2",
            "--apps", "wish",
            "--output", str(output),
        ]
    )
    assert code == 0
    printed = capsys.readouterr().out
    assert "per-request wall cost" in printed
    written = json.loads(output.read_text())
    assert [row["users"] for row in written["rows"]] == [5, 10]
    assert written["derived"]["per_request_cost_ratio"] > 0


def test_cli_scale_validates_arguments(capsys):
    assert main(["scale", "--users", "0"]) == 2
    assert main(["scale", "--users", "5", "--duration", "0"]) == 2


# ======================================================================
# strategy plumbing: appx vs history vs none on one workload
# ======================================================================
def test_run_scale_rejects_unknown_strategy():
    with pytest.raises(ValueError):
        run_scale(users=2, duration=1.0, strategy="bogus")


def test_strategy_none_issues_no_prefetches():
    row = run_scale(
        users=4, duration=5.0, rate_per_user=1.0, seed=3,
        apps=("wish",), strategy="none",
    )
    assert row["prefetch_issued"] == 0
    assert row["hit_rate"] == 0.0


def test_appx_strategy_beats_no_prefetch_on_the_same_workload():
    kwargs = dict(
        users=6, duration=10.0, rate_per_user=1.0, seed=3, apps=("wish",),
        warm_start=True,
    )
    baseline = run_scale(strategy="none", **kwargs)
    accelerated = run_scale(strategy="appx", **kwargs)
    # identical seeded workload: same arrivals, same session steps
    assert accelerated["requests"] == baseline["requests"]
    # session-consistent replay makes prefetched entries actually hit
    assert accelerated["hit_rate"] > 0.2
    assert accelerated["latency_p50_ms"] < baseline["latency_p50_ms"]


def test_admission_threshold_cuts_prefetch_volume():
    kwargs = dict(
        users=6, duration=10.0, rate_per_user=1.0, seed=3, apps=("wish",),
        warm_start=True,
    )
    # the gate judges resolved prefetches only; a per-user bound makes
    # the Wish fan-out evict unserved entries, so outcomes resolve
    bounded = dict(kwargs, max_entries_per_user=32)
    open_gate = run_scale(strategy="appx", admission_threshold=0.0, **bounded)
    gated = run_scale(strategy="appx", admission_threshold=0.2, **bounded)
    assert gated["skipped_admission"] > 0
    assert gated["prefetch_issued"] < open_gate["prefetch_issued"]
    # unbounded, no entry leaves the cache unserved within 10 s: no
    # evidence against any signature, so the gate admits everything
    unbounded = run_scale(strategy="appx", admission_threshold=0.2, **kwargs)
    assert unbounded["prefetch_wasted"] == 0
    assert unbounded["skipped_admission"] == 0


def test_run_strategy_comparison_reports_deltas():
    from repro.experiments.scale import (
        format_strategy_table,
        run_strategy_comparison,
    )

    comparison = run_strategy_comparison(
        users=6, duration=10.0, rate_per_user=1.0, seed=3, apps=("wish",),
        strategies=("none", "appx"),
    )
    assert set(comparison["rows"]) == {"none", "appx"}
    derived = comparison["derived"]["appx"]
    assert derived["p50_delta_ms"] < 0
    assert derived["p50_speedup"] > 1.0
    assert derived["hit_rate"] > 0.2
    table = format_strategy_table(comparison)
    assert "appx" in table and "none" in table and "speedup" in table


def test_run_scale_adaptive_budget_and_estimator_row_fields():
    row = run_scale(
        users=4, duration=8.0, rate_per_user=1.0, seed=3, apps=("wish",),
        strategy="appx", max_entries_total=64, adaptive_budget=True,
        estimate_expiration=True, warm_start=True,
    )
    assert row["max_entries_total"] == 64
    assert row["adaptive_budget"] is True
    assert row["expiration"] is not None
    assert row["expiration"]["sites"] > 0
    assert row["prefetch_by_signature"]


def test_run_scale_signature_cells_carry_queue_wait():
    row = run_scale(users=4, duration=6.0, seed=0, apps=("wish",), warm_start=True)
    cells = row["prefetch_by_signature"]
    assert cells
    for cell in cells.values():
        assert isinstance(cell["queue_wait_ms"], int)
        assert cell["queue_wait_ms"] >= 0
    # the 64-slot pipe backs up on a warm Wish cell, so prefetches wait
    assert sum(cell["queue_wait_ms"] for cell in cells.values()) > 0


def test_cli_scale_compare_strategies_smoke(tmp_path, capsys):
    output = tmp_path / "compare.json"
    code = main(
        [
            "scale",
            "--users", "4",
            "--duration", "5",
            "--rate", "1.0",
            "--apps", "wish",
            "--compare-strategies",
            "--output", str(output),
        ]
    )
    assert code == 0
    printed = capsys.readouterr().out
    assert "strategy comparison" in printed
    written = json.loads(output.read_text())
    assert set(written["rows"]) == {"none", "history", "appx"}


def test_cli_scale_validates_new_arguments(capsys):
    assert main(["scale", "--users", "4", "--admission-threshold", "1.5"]) == 2
    assert main(["scale", "--users", "4", "--adaptive-budget"]) == 2
    capsys.readouterr()
