"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_apps_command(capsys):
    code, out = run_cli(capsys, "apps")
    assert code == 0
    for name in ("wish", "geek", "doordash", "purple_ocean", "postmates"):
        assert name in out


def test_analyze_command(capsys):
    code, out = run_cli(capsys, "analyze", "purple_ocean")
    assert code == 0
    assert "signatures: 8" in out
    assert "dependencies:" in out
    assert "[side-effect]" in out


def test_analyze_sig_file(tmp_path, capsys):
    target = tmp_path / "wish.sig.json"
    code, out = run_cli(capsys, "analyze", "wish", "--sig-file", str(target))
    assert code == 0
    payload = json.loads(target.read_text())
    assert payload["package"] == "com.wish.android"
    assert payload["signatures"]


def test_demo_command(capsys):
    code, out = run_cli(capsys, "demo", "postmates")
    assert code == 0
    assert "without proxy" in out
    assert "with APPx" in out


def test_experiment_table1(capsys):
    code, out = run_cli(capsys, "experiment", "table1")
    assert code == 0
    assert "Wish" in out


def test_experiment_ablation(capsys):
    code, out = run_cli(capsys, "experiment", "ablation")
    assert code == 0
    assert "no_intents" in out


def test_experiment_unknown(capsys):
    code = main(["experiment", "nope"])
    assert code == 2


def test_unknown_app_errors():
    with pytest.raises(KeyError):
        main(["analyze", "not-an-app"])


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_verify_command(tmp_path, capsys):
    config_file = tmp_path / "config.json"
    code, out = run_cli(
        capsys, "verify", "purple_ocean", "--duration", "20",
        "--config-file", str(config_file),
    )
    assert code == 0
    assert "expiration estimates" in out
    payload = json.loads(config_file.read_text())
    assert payload["policies"]


# ----------------------------------------------------------------------
# live telemetry plane / SLO flags
# ----------------------------------------------------------------------
def _slo_config_file(tmp_path):
    # slow window wider than the run: terminal events push the sim
    # clock past the nominal duration, and the end-of-run verdict must
    # still see the early overflow burst inside the slow window
    config = {
        "window_s": 12.0,
        "fast_window_s": 1.0,
        "objectives": [
            {"name": "overflow_rate", "kind": "overflow",
             "budget_ratio": 0.01, "fast_burn": 2.0, "slow_burn": 1.0,
             "min_events": 10},
        ],
    }
    path = tmp_path / "slo.json"
    path.write_text(json.dumps(config))
    return str(path)


def test_scale_slo_violation_exits_nonzero(tmp_path, capsys):
    report_path = tmp_path / "slo_report.json"
    code, out = run_cli(
        capsys, "scale", "--users", "60", "--duration", "4",
        "--rate", "2.0", "--max-entries-per-user", "16",
        "--slo", _slo_config_file(tmp_path),
        "--slo-report", str(report_path),
        "--learn-queue-capacity", "4", "--learn-drain-budget", "0",
    )
    assert code == 1
    assert "slo verdict: FAIL" in out
    assert "VIOLATED" in out
    assert "backpressure[60 users]" in out
    report = json.loads(report_path.read_text())
    assert report["passed"] is False
    assert report["cells"][0]["slo"]["objectives"][0]["bad"] > 0
    assert report["cells"][0]["peak_rss_bytes"] > 0


def test_scale_slo_clean_run_passes(tmp_path, capsys):
    code, out = run_cli(
        capsys, "scale", "--users", "60", "--duration", "4",
        "--rate", "2.0", "--max-entries-per-user", "16",
        "--slo", _slo_config_file(tmp_path),
    )
    assert code == 0
    assert "slo verdict: PASS" in out
    assert "live[60 users]" in out


def test_scale_slo_flag_validation(tmp_path, capsys):
    # --slo-report without --slo
    assert main(["scale", "--users", "10", "--slo-report", "x.json"]) == 2
    # unreadable SLO config
    assert main([
        "scale", "--users", "10", "--slo", str(tmp_path / "missing.json"),
    ]) == 2
    # non-positive heartbeat interval
    assert main([
        "scale", "--users", "10", "--heartbeat-interval", "0",
    ]) == 2
    capsys.readouterr()


def test_scale_prom_atomic_dump(tmp_path, capsys):
    prom_path = tmp_path / "metrics.prom"
    code, out = run_cli(
        capsys, "scale", "--users", "20", "--duration", "2",
        "--max-entries-per-user", "16", "--prom", str(prom_path),
    )
    assert code == 0
    assert "wrote Prometheus metrics to {}".format(prom_path) in out
    assert "# TYPE" in prom_path.read_text()
    # atomic write: the temp file was renamed into place, not left over
    assert [p.name for p in tmp_path.iterdir()] == ["metrics.prom"]


def test_scale_fleet_prom_dump(tmp_path, capsys):
    prom_path = tmp_path / "fleet.prom"
    code, out = run_cli(
        capsys, "scale", "--users", "6", "--duration", "1", "--apps", "wish",
        "--workers", "2", "--prom", str(prom_path),
    )
    assert code == 0
    assert "wrote Prometheus metrics to {}".format(prom_path) in out
    assert "# TYPE" in prom_path.read_text()
    assert [p.name for p in tmp_path.iterdir()] == ["fleet.prom"]


def test_stats_prom_atomic_dump(tmp_path, capsys):
    trace_path = tmp_path / "trace.jsonl"
    code, _ = run_cli(
        capsys, "scale", "--users", "4", "--duration", "1", "--apps", "wish",
        "--trace", str(trace_path),
    )
    assert code == 0
    prom_path = tmp_path / "stats.prom"
    code, out = run_cli(capsys, "stats", str(trace_path), "--prom", str(prom_path))
    assert code == 0
    assert "wrote Prometheus metrics to {}".format(prom_path) in out
    assert "# TYPE" in prom_path.read_text()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["stats.prom", "trace.jsonl"]


def test_stats_prints_yield_and_mean_queue_wait(tmp_path, capsys):
    trace_path = tmp_path / "trace.jsonl"
    code, _ = run_cli(
        capsys, "scale", "--users", "4", "--duration", "6", "--apps", "wish",
        "--warm-start", "--trace", str(trace_path),
    )
    assert code == 0
    json_path = tmp_path / "stats.json"
    code, out = run_cli(capsys, "stats", str(trace_path), "--json", str(json_path))
    assert code == 0
    assert "yield" in out and "mean wait ms" in out
    assert "unresolved" in out and "adm yield" in out
    table = json.loads(json_path.read_text())["prefetch_by_signature"]
    assert table
    assert sum(cell["queue_wait_ms"] for cell in table.values()) > 0
    efficacy = out.split("per-signature prefetch efficacy:")[1].splitlines()
    for signature, cell in table.items():
        line = next(row for row in efficacy if row.strip().startswith(signature))
        issued = cell["issued"]
        assert line.split()[-2:] == [
            "{:.2f}".format(cell["hits"] / issued),
            "{:.1f}".format(cell["queue_wait_ms"] / issued),
        ]
        # every issued prefetch is served, wasted or still unresolved
        assert cell["unresolved"] == issued - cell["served"] - cell["wasted"]
        assert cell["unresolved"] >= 0
        assert line.split()[-6:-3] == [
            str(cell["served"]), str(cell["wasted"]), str(cell["unresolved"])
        ]


def test_scale_compare_strategies_rejects_ignored_outputs(tmp_path, capsys):
    base = ["scale", "--users", "4", "--duration", "1", "--compare-strategies"]
    for extra in (
        ["--prom", str(tmp_path / "m.prom")],
        ["--trace", str(tmp_path / "t.jsonl")],
        ["--trace-sample", "0.5"],
    ):
        code, _ = run_cli(capsys, *base, *extra)
        assert code == 2, extra
    assert list(tmp_path.iterdir()) == []
