"""Command-line interface: ``python -m repro <command>``.

Commands::

    apps                      list the bundled app models
    analyze APP [--sig-file]  run static analysis (phase 1)
    verify APP                run testing & verification (phase 2)
    demo APP                  accelerate one session, print the speedup
    experiment NAME           run one table/figure experiment
    figs [NAME...] --jobs N   run figure sweeps over a process pool
    cache [--clear]           inspect / clear the analysis artifact cache
    bench                     signature-dispatch microbenchmark
    scale --users N...        million-user serving-core load harness
                              (--trace out.jsonl samples request traces)
    stats TRACE.jsonl         per-stage / per-cause rollup of a trace
    lint [PATHS...]           AST static-analysis gate (determinism,
                              metrics hygiene, multiprocessing safety)
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.analysis import analyze_apk
from repro.analysis.serialize import dumps as dump_signatures
from repro.apps import all_apps, get_app


def _command_apps(args) -> int:
    print("{:<14} {:<16} {}".format("name", "category", "main interaction"))
    for name, spec in all_apps().items():
        print("{:<14} {:<16} {}".format(name, spec.category, spec.main_interaction))
    return 0


def _command_analyze(args) -> int:
    spec = get_app(args.app)
    apk = spec.build_apk()
    result = analyze_apk(apk)
    if args.report:
        from repro.analysis.report import render_report

        print(render_report(result))
        return 0
    if args.sig_file:
        with open(args.sig_file, "w") as handle:
            handle.write(dump_signatures(result))
        print("wrote {} signatures to {}".format(len(result.signatures), args.sig_file))
        return 0
    summary = result.summary()
    print("{} — {} IR instructions".format(spec.label, apk.instruction_count()))
    print(
        "signatures: {signatures}  prefetchable: {prefetchable}  "
        "dependencies: {dependencies}  max chain: {max_chain}".format(**summary)
    )
    for signature in result.signatures:
        marker = "*" if signature.is_successor() else " "
        flags = " [side-effect]" if signature.side_effect else ""
        print(
            " {} {:<40} {} {}{}".format(
                marker,
                signature.site,
                signature.request.method,
                signature.request.uri.regex(),
                flags,
            )
        )
    print("dependencies:")
    for edge in result.dependencies:
        print(
            "   {}:{}".format(edge.pred_site, edge.pred_path.to_string())
        )
        print("     -> {}:{}".format(edge.succ_site, edge.succ_path.to_string()))
    return 0


def _command_verify(args) -> int:
    from repro.proxy.verification import run_verification
    from repro.server.content import Catalog

    spec = get_app(args.app)
    apk = spec.build_apk()
    result = analyze_apk(apk)
    config, report = run_verification(
        apk,
        result,
        build_origin_map=lambda sim: spec.build_origin_map(sim, Catalog())[0],
        profile=spec.default_profile("verify-user"),
        fuzz_duration=args.duration,
    )
    print("fuzz interactions: {}".format(report.fuzz_interactions))
    print("prefetch successes: {}".format(sum(report.prefetch_successes.values())))
    if report.disabled:
        print("disabled signatures:")
        for site, reason in report.disabled.items():
            print("  {} ({})".format(site, reason))
    print("expiration estimates:")
    for site, expiry in sorted(report.expiry_estimates.items()):
        print("  {:<42} {:>8.0f} s".format(site, expiry))
    if args.config_file:
        with open(args.config_file, "w") as handle:
            handle.write(config.to_json())
        print("wrote configuration to {}".format(args.config_file))
    return 0


def _command_demo(args) -> int:
    from repro.device.runtime import AppRuntime
    from repro.netsim.link import Link
    from repro.netsim.sim import Delay, Simulator
    from repro.netsim.transport import DirectTransport
    from repro.proxy import AccelerationProxy, ProxiedTransport
    from repro.server.content import Catalog

    spec = get_app(args.app)
    apk = spec.build_apk()
    analysis = analyze_apk(apk)

    def session(proxied):
        sim = Simulator()
        origins, _ = spec.build_origin_map(sim, Catalog())
        access = Link(rtt=0.055, shared=True)
        proxy = None
        if proxied:
            proxy = AccelerationProxy(sim, origins, analysis)
            transport = ProxiedTransport(sim, access, proxy)
        else:
            transport = DirectTransport(sim, access, origins)
        runtime = AppRuntime(apk, transport, sim, spec.default_profile())

        def flow():
            yield sim.spawn(runtime.launch())
            yield Delay(6.0)
            result = yield sim.spawn(runtime.dispatch(*spec.main_flow[-1]))
            return result

        return sim.run_process(flow()), proxy

    original, _ = session(False)
    accelerated, proxy = session(True)
    print("{}: {}".format(spec.label, spec.main_interaction))
    print("  without proxy: {:.0f} ms".format(1000 * original.latency))
    print(
        "  with APPx:     {:.0f} ms  ({:.0f}% lower, {} served from cache)".format(
            1000 * accelerated.latency,
            100 * (1 - accelerated.latency / original.latency),
            proxy.served_prefetched,
        )
    )
    return 0


def _command_bench(args) -> int:
    from repro.experiments.matching_bench import run_matching_bench

    if args.requests <= 0:
        print("bench: --requests must be positive", file=sys.stderr)
        return 2
    result = run_matching_bench(total_requests=args.requests, seed=args.seed)
    workload = result["workload"]
    naive, indexed = result["naive"], result["indexed"]
    print(
        "workload: {} requests over {} signatures ({} apps), {} matched".format(
            workload["requests"],
            workload["signatures"],
            len(workload["apps"]),
            workload["matched"],
        )
    )
    print(
        "naive scan:   {:8.1f} regex attempts/request  {:8.3f} s".format(
            naive["regex_attempts_per_request"], naive["wall_s"]
        )
    )
    print(
        "indexed path: {:8.1f} regex attempts/request  {:8.3f} s  "
        "({:.1f} candidates/request, {} memo hits)".format(
            indexed["regex_attempts_per_request"],
            indexed["wall_s"],
            indexed["candidates_per_request"],
            indexed["memo_hits"],
        )
    )
    print(
        "regex-attempt ratio: {:.1f}x   wall speedup: {:.1f}x   mismatches: {}".format(
            result["derived"]["regex_attempt_ratio"],
            result["derived"]["wall_speedup"],
            result["differential"]["mismatches"],
        )
    )
    with open(args.output, "w") as handle:
        json.dump(result, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print("wrote trajectory to {}".format(args.output))
    return 0 if result["differential"]["mismatches"] == 0 else 1


def _print_heartbeat(shard, payload, tracker=None) -> None:
    """One mid-run heartbeat line (stderr; stdout keeps the tables)."""
    readings = payload.get("readings") or {}
    lag = ""
    if tracker is not None and tracker.lagging:
        lag = "  LAGGING={}".format(sorted(tracker.lagging))
    print(
        "hb shard={} t={:.2f}s requests={} queue={} p99={:.0f}ms hit={:.2f}%{}".format(
            "-" if shard is None else shard,
            float(payload.get("sim_now") or 0.0),
            payload.get("requests"),
            payload.get("queue_depth"),
            float(readings.get("request_p99_ms") or 0.0),
            100.0 * float(readings.get("hit_rate") or 0.0),
            lag,
        ),
        file=sys.stderr,
    )


def _command_scale(args) -> int:
    from repro.experiments.fleet import FleetWorkerError
    from repro.experiments.scale import (
        format_strategy_table,
        run_scale_sweep,
        run_strategy_comparison,
    )

    if any(count < 1 for count in args.users):
        print("scale: --users values must be positive", file=sys.stderr)
        return 2
    if args.duration <= 0:
        print("scale: --duration must be positive", file=sys.stderr)
        return 2
    if args.trace_sample is not None and not 0.0 <= args.trace_sample <= 1.0:
        print("scale: --trace-sample must be within [0, 1]", file=sys.stderr)
        return 2
    if args.admission_threshold is not None and not (
        0.0 <= args.admission_threshold <= 1.0
    ):
        print(
            "scale: --admission-threshold must be within [0, 1]",
            file=sys.stderr,
        )
        return 2
    if args.adaptive_budget and args.max_entries_total is None:
        print(
            "scale: --adaptive-budget requires --max-entries-total",
            file=sys.stderr,
        )
        return 2
    if args.workers < 1:
        print("scale: --workers must be >= 1", file=sys.stderr)
        return 2
    if args.compare_strategies and args.workers > 1:
        print(
            "scale: --compare-strategies cannot be combined with --workers "
            "(the comparison is a single-process differential)",
            file=sys.stderr,
        )
        return 2
    if args.workers > 1 and any(count < args.workers for count in args.users):
        print(
            "scale: every --users value must be >= --workers",
            file=sys.stderr,
        )
        return 2
    if args.heartbeat_interval is not None and args.heartbeat_interval <= 0:
        print("scale: --heartbeat-interval must be positive", file=sys.stderr)
        return 2
    if args.slo_report and args.slo is None:
        print("scale: --slo-report requires --slo", file=sys.stderr)
        return 2
    if args.compare_strategies and (
        args.slo is not None or args.telemetry or args.heartbeat_interval
    ):
        print(
            "scale: the live telemetry plane (--slo/--telemetry/"
            "--heartbeat-interval) cannot be combined with "
            "--compare-strategies",
            file=sys.stderr,
        )
        return 2
    if args.compare_strategies and (
        args.prom is not None
        or args.trace is not None
        or args.trace_sample is not None
    ):
        print(
            "scale: --prom/--trace/--trace-sample cannot be combined with "
            "--compare-strategies (the comparison writes neither)",
            file=sys.stderr,
        )
        return 2
    slo_config = None
    if args.slo is not None:
        from repro.metrics.slo import load_slo_config

        try:
            slo_config = load_slo_config(args.slo)
        except (OSError, ValueError) as error:
            print("scale: --slo: {}".format(error), file=sys.stderr)
            return 2
    heartbeat_interval = args.heartbeat_interval
    if heartbeat_interval is None and slo_config is not None and args.workers > 1:
        # --slo on a fleet implies liveness reporting: that is how the
        # supervisor sees per-shard windowed p99/hit-rate mid-run
        heartbeat_interval = 1.0
    telemetry_on = (
        args.telemetry or slo_config is not None or heartbeat_interval is not None
    )
    policy_kwargs = dict(
        max_entries_per_user=args.max_entries_per_user,
        max_entries_total=args.max_entries_total,
        adaptive_budget=args.adaptive_budget,
        admission_threshold=args.admission_threshold,
        estimate_expiration=args.estimate_expiration,
        learn_mode=args.learn_mode,
    )
    if args.compare_strategies:
        comparison = run_strategy_comparison(
            max(args.users),
            args.duration,
            apps=args.apps,
            rate_per_user=args.rate,
            seed=args.seed,
            **policy_kwargs,
        )
        print(format_strategy_table(comparison))
        if args.output:
            with open(args.output, "w") as handle:
                json.dump(comparison, handle, indent=2, sort_keys=True)
                handle.write("\n")
            print("wrote comparison to {}".format(args.output))
        return 0
    serve_kwargs = {}
    if args.workers > 1:
        serve_kwargs = dict(
            worker_timeout=args.worker_timeout,
            prom_path=args.prom,
            heartbeat_log=_print_heartbeat,
        )
    elif heartbeat_interval is not None:
        serve_kwargs = dict(
            heartbeat_sink=lambda payload: _print_heartbeat(payload.get("shard"), payload),
            shard=0,
        )
    try:
        result = run_scale_sweep(
            args.users,
            default_duration=args.duration,
            workers=args.workers,
            apps=args.apps,
            rate_per_user=args.rate,
            seed=args.seed,
            trace_path=args.trace,
            trace_sample=args.trace_sample,
            trace_seed=args.trace_seed,
            strategy=args.strategy,
            warm_start=args.warm_start,
            learn_queue_capacity=args.learn_queue_capacity,
            learn_drain_budget=args.learn_drain_budget,
            telemetry=args.telemetry,
            slo_config=slo_config,
            heartbeat_interval=heartbeat_interval,
            backpressure=not args.no_backpressure,
            **serve_kwargs,
            **policy_kwargs,
        )
    except FleetWorkerError as error:
        print("scale: {}".format(error), file=sys.stderr)
        return 1
    header = (
        "{:>8} {:>9} {:>9} {:>11} {:>9} {:>9} {:>9} {:>7} {:>9} {:>9}".format(
            "users", "requests", "wall_s", "us/request", "events/s",
            "p50_ms", "p99_ms", "hit", "peak_ent", "rss_mb",
        )
    )
    print(header)
    for row in result["rows"]:
        print(
            "{:>8} {:>9} {:>9.3f} {:>11.1f} {:>9.0f} {:>9.1f} {:>9.1f} "
            "{:>6.0f}% {:>9} {:>9.1f}".format(
                row["users"],
                row["requests"],
                row["wall_s"],
                row["per_request_wall_us"],
                row["sim_events_per_wall_s"],
                row["latency_p50_ms"],
                row["latency_p99_ms"],
                100 * row["hit_rate"],
                row["peak_cache_entries"],
                row["peak_rss_bytes"] / 1e6,
            )
        )
    derived = result["derived"]
    print(
        "per-request wall cost at {} users is {:.2f}x the {}-user cost".format(
            derived["largest_users"],
            derived["per_request_cost_ratio"],
            derived["smallest_users"],
        )
    )
    if args.workers > 1:
        for row in result["rows"]:
            fleet = row["fleet"]
            print(
                "fleet: {} workers, shard users {}, shard requests {}, "
                "{:.0f} requests/wall-s".format(
                    row["workers"],
                    fleet["shard_users"],
                    fleet["shard_requests"],
                    row["requests_per_wall_s"],
                )
            )
    if telemetry_on:
        for row in result["rows"]:
            live = row.get("live") or {}
            readings = live.get("readings") or {}
            print(
                "live[{} users]: window={:.0f}s rate={:.0f}/s p50={:.1f}ms "
                "p99={:.1f}ms hit={:.2f}% overflow={:.0f} wasted={:.0f} "
                "ticks={} heartbeats={} alerts={}".format(
                    row["users"],
                    readings.get("window_s", 0.0),
                    readings.get("request_rate", 0.0),
                    readings.get("request_p50_ms", 0.0),
                    readings.get("request_p99_ms", 0.0),
                    100.0 * readings.get("hit_rate", 0.0),
                    readings.get("overflow", 0.0),
                    readings.get("wasted", 0.0),
                    live.get("ticks", 0),
                    live.get("heartbeats_sent", 0),
                    live.get("alerts", 0),
                )
            )
            hb = row.get("heartbeats")
            if hb:
                print(
                    "heartbeats[{} users]: received={} max_skew={:.2f}s "
                    "lagging={}".format(
                        row["users"],
                        hb["received"],
                        hb["max_skew_s"],
                        hb["lagging_shards"] or "none",
                    )
                )
            bp = row.get("backpressure")
            if bp:
                print(
                    "backpressure[{} users]: budget_grow={} budget_shrink={} "
                    "admission_tighten={} admission_relax={} "
                    "drain_budgets={}".format(
                        row["users"],
                        bp["budget_grow"],
                        bp["budget_shrink"],
                        bp["admission_tighten"],
                        bp["admission_relax"],
                        bp["drain_budgets"],
                    )
                )
    slo_passed = True
    if slo_config is not None:
        for row in result["rows"]:
            report = row.get("slo") or {}
            for objective in report.get("objectives", []):
                print(
                    "slo[{} users] {:<16} burn_slow={:.2f} burn_fast={:.2f} "
                    "bad/total={:.0f}/{:.0f} {}".format(
                        row["users"],
                        objective["objective"],
                        objective["burn_slow"],
                        objective["burn_fast"],
                        objective["bad"],
                        objective["total"],
                        "VIOLATED" if objective["violated"] else "ok",
                    )
                )
            if not report.get("passed", True):
                slo_passed = False
        print("slo verdict: {}".format("PASS" if slo_passed else "FAIL"))
        if args.slo_report:
            slo_report = {
                "passed": slo_passed,
                "config": args.slo,
                "cells": [
                    {
                        "users": row["users"],
                        "workers": row.get("workers", args.workers),
                        "slo": row.get("slo"),
                        "live_readings": (row.get("live") or {}).get("readings"),
                        "backpressure": row.get("backpressure"),
                        "peak_rss_bytes": row["peak_rss_bytes"],
                    }
                    for row in result["rows"]
                ],
            }
            with open(args.slo_report, "w") as handle:
                json.dump(slo_report, handle, indent=2, sort_keys=True)
                handle.write("\n")
            print("wrote SLO report to {}".format(args.slo_report))
    tracing = args.trace is not None or args.trace_sample is not None
    if tracing:
        last = result["rows"][-1]
        _print_stage_table(last.get("stage_latency_us") or {})
        _print_miss_causes(last.get("miss_causes") or {})
        for row in result["rows"]:
            trace_stats = row.get("trace") or {}
            if "exported" in trace_stats:
                print(
                    "wrote {} trace record(s) to {}".format(
                        trace_stats["exported"], trace_stats["path"]
                    )
                )
    if args.prom:
        if args.workers == 1:
            from repro.metrics.perf import PERF

            PERF.registry.dump_prometheus(args.prom)
        # workers > 1: run_fleet already wrote the folded registry
        print("wrote Prometheus metrics to {}".format(args.prom))
    if args.output:
        with open(args.output, "w") as handle:
            json.dump(result, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print("wrote trajectory to {}".format(args.output))
    return 0 if slo_passed else 1


def _print_stage_table(stage_latency) -> None:
    if not stage_latency:
        print("(no per-stage latency samples)")
        return
    print(
        "{:<28} {:>9} {:>11} {:>11} {:>11}".format(
            "stage", "count", "p50_us", "p95_us", "p99_us"
        )
    )
    for stage in sorted(stage_latency):
        row = stage_latency[stage]
        print(
            "{:<28} {:>9} {:>11.1f} {:>11.1f} {:>11.1f}".format(
                stage,
                row["count"],
                row["p50_us"],
                row["p95_us"],
                row["p99_us"],
            )
        )


def _print_miss_causes(miss_causes) -> None:
    if not miss_causes:
        print("(no cache misses recorded)")
        return
    total = sum(miss_causes.values())
    print("cache misses by cause:")
    for cause in sorted(miss_causes, key=miss_causes.get, reverse=True):
        count = miss_causes[cause]
        print(
            "  {:<20} {:>9}  ({:.1f}%)".format(cause, count, 100.0 * count / total)
        )


def _command_stats(args) -> int:
    from repro.metrics.trace import aggregate_records, read_jsonl, registry_from_records

    try:
        records = read_jsonl(args.trace, validate=True)
    except (OSError, ValueError) as error:
        print("stats: {}".format(error), file=sys.stderr)
        return 1
    summary = aggregate_records(records)
    print(
        "{} trace record(s): {}".format(
            summary["records"],
            ", ".join(
                "{} {}".format(count, kind)
                for kind, count in sorted(summary["kinds"].items())
            )
            or "none",
        )
    )
    stages = {
        stage: {
            "count": row["count"],
            "p50_us": row["wall_us_p50"],
            "p95_us": row["wall_us_p95"],
            "p99_us": row["wall_us_p99"],
        }
        for stage, row in summary["stages"].items()
    }
    _print_stage_table(stages)
    _print_miss_causes(summary["miss_causes"])
    if summary["by_signature"]:
        print("per-signature cache outcomes:")
        for signature in sorted(summary["by_signature"]):
            row = summary["by_signature"][signature]
            answered = row["hits"] + row["misses"]
            print(
                "  {:<42} {:>6} hits {:>6} misses  ({:.0f}% hit)".format(
                    signature,
                    row["hits"],
                    row["misses"],
                    100.0 * row["hits"] / answered if answered else 0.0,
                )
            )
    if summary.get("prefetch_by_signature"):
        # yield (hits per issued prefetch) is the §5 queue priority; a
        # signature starved by the queue shows a long mean wait.
        # Admission judges "adm yield", served over resolved (served +
        # wasted); unresolved prefetches are not evidence yet
        print("per-signature prefetch efficacy:")
        print(
            "  {:<42} {:>7} {:>7} {:>7} {:>7} {:>10} {:>9} {:>7} {:>12}".format(
                "signature", "issued", "hits", "served", "wasted",
                "unresolved", "adm yield", "yield", "mean wait ms",
            )
        )
        for signature in sorted(summary["prefetch_by_signature"]):
            row = summary["prefetch_by_signature"][signature]
            issued = row.get("issued", 0)
            served = row.get("served", 0)
            resolved = served + row.get("wasted", 0)
            print(
                "  {:<42} {:>7} {:>7} {:>7} {:>7} {:>10} {:>9} {:>7.2f} {:>12.1f}".format(
                    signature,
                    issued,
                    row.get("hits", 0),
                    served,
                    row.get("wasted", 0),
                    row.get("unresolved", 0),
                    "{:.2f}".format(served / resolved) if resolved else "-",
                    row.get("hits", 0) / issued if issued else 0.0,
                    row.get("queue_wait_ms", 0) / issued if issued else 0.0,
                )
            )
    if args.prom:
        registry_from_records(records).dump_prometheus(args.prom)
        print("wrote Prometheus metrics to {}".format(args.prom))
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(summary, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print("wrote aggregate to {}".format(args.json))
    return 0


def _command_lint(args) -> int:
    from repro.qa import render_json, render_text, rule_catalog, run_lint

    if args.list_rules:
        for entry in rule_catalog():
            print(
                "{:<52} [{}]".format(
                    ",".join(entry["ids"]), ",".join(entry["profiles"])
                )
            )
            print("    {}".format(entry["description"]))
        return 0
    try:
        report = run_lint(args.paths, root=args.root, strict=args.strict)
    except FileNotFoundError as error:
        print("lint: {}".format(error), file=sys.stderr)
        return 2
    if args.json is not None:
        rendered = render_json(report)
        if args.json == "-":
            print(rendered)
        else:
            with open(args.json, "w") as handle:
                handle.write(rendered)
                handle.write("\n")
            print("wrote lint report to {}".format(args.json), file=sys.stderr)
    if args.json != "-":
        print(render_text(report))
    return report.exit_code


def _print_rows(rows) -> None:
    if isinstance(rows, dict):
        for key, value in rows.items():
            print("{}: {}".format(key, value))
    elif isinstance(rows, list) and rows and isinstance(rows[0], dict):
        for row in rows:
            print({k: v for k, v in row.items() if not k.endswith("_cdf")})
    else:
        print(rows)


def _command_figs(args) -> int:
    from repro.experiments.cache import AnalysisArtifactCache
    from repro.experiments.parallel import PARALLEL_FIGURES, run_figures

    names = args.names or list(PARALLEL_FIGURES)
    unknown = [name for name in names if name not in PARALLEL_FIGURES]
    if unknown:
        print(
            "unknown figure(s) {}; choose from {}".format(
                ", ".join(unknown), ", ".join(PARALLEL_FIGURES)
            ),
            file=sys.stderr,
        )
        return 2
    artifact_cache = None
    if not args.no_cache:
        artifact_cache = AnalysisArtifactCache(args.cache_dir)
    params = {
        "table3": {"fuzz_duration": 300.0, "trace_participants": 6},
        "fig13": {"runs": 5},
        "fig14": {"runs": 5},
        "fig15": {"participants": args.participants},
        "fig16": {"participants": args.participants},
        "fig17": {"participants": args.participants},
    }
    results = run_figures(
        names,
        jobs=args.jobs,
        params_by_figure=params,
        artifact_cache=artifact_cache,
    )
    for name, rows in results.items():
        print("== {} ==".format(name))
        _print_rows(rows)
    if artifact_cache is not None:
        print("analysis cache: {}".format(artifact_cache.stats()))
    if args.output:
        with open(args.output, "w") as handle:
            json.dump(results, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print("wrote rows to {}".format(args.output))
    return 0


def _command_cache(args) -> int:
    from repro.experiments.cache import AnalysisArtifactCache

    artifact_cache = AnalysisArtifactCache(args.cache_dir)
    if args.clear:
        removed = artifact_cache.clear()
        print("removed {} cached artifact(s) from {}".format(removed, artifact_cache.root))
        return 0
    if args.invalidate:
        removed = artifact_cache.invalidate(args.invalidate)
        print(
            "removed {} cached artifact(s) for {!r}".format(removed, args.invalidate)
        )
        return 0
    entries = artifact_cache.entries()
    print("cache dir: {}".format(artifact_cache.root))
    if not entries:
        print("(empty)")
    for file_name, app in entries.items():
        print("  {:<14} {}".format(app, file_name))
    return 0


_EXPERIMENTS = {
    "table1": ("table1_rows", {}),
    "table2": ("table2_rows", {}),
    "table3": ("table3_rows", {"fuzz_duration": 300.0, "trace_participants": 6}),
    "fig11": ("fig11_doordash_chain", {}),
    "fig12": ("fig12_wish_fanout", {}),
    "fig13": ("fig13_main_interaction", {"runs": 5}),
    "fig14": ("fig14_app_launch", {"runs": 5}),
    "fig15": ("fig15_percentile_sweep", {"participants": 6}),
    "fig16": ("fig16_cdf_and_usage", {"participants": 6}),
    "fig17": ("fig17_probability_tradeoff", {"participants": 6}),
    "ablation": ("ablation_analysis_rows", {}),
}


def _command_experiment(args) -> int:
    from repro.experiments import runner

    if args.name not in _EXPERIMENTS:
        print(
            "unknown experiment {!r}; choose from {}".format(
                args.name, ", ".join(sorted(_EXPERIMENTS))
            ),
            file=sys.stderr,
        )
        return 2
    function_name, kwargs = _EXPERIMENTS[args.name]
    rows = getattr(runner, function_name)(**kwargs)
    _print_rows(rows)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="APPx app-acceleration framework (CoNEXT 2018)"
    )
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("apps", help="list the bundled app models")

    analyze = commands.add_parser("analyze", help="static analysis (phase 1)")
    analyze.add_argument("app")
    analyze.add_argument("--sig-file", help="write the signature file here")
    analyze.add_argument(
        "--report", action="store_true",
        help="print the full Fig. 5-style signature report",
    )

    verify = commands.add_parser("verify", help="testing & verification (phase 2)")
    verify.add_argument("app")
    verify.add_argument("--duration", type=float, default=60.0)
    verify.add_argument("--config-file", help="write the generated config here")

    demo = commands.add_parser("demo", help="one accelerated session")
    demo.add_argument("app")

    experiment = commands.add_parser("experiment", help="run one table/figure")
    experiment.add_argument("name", help="table1..table3, fig11..fig17")

    figs = commands.add_parser(
        "figs", help="run figure sweeps over a process pool"
    )
    figs.add_argument(
        "names", nargs="*",
        help="figures to run (default: table3 fig13..fig17)",
    )
    figs.add_argument(
        "--jobs", type=int, default=None,
        help="worker processes for the scenario fan-out (default: serial)",
    )
    figs.add_argument(
        "--participants", type=int, default=6,
        help="user-study participants per cell (default: 6)",
    )
    figs.add_argument(
        "--no-cache", action="store_true",
        help="skip the on-disk analysis artifact cache",
    )
    figs.add_argument(
        "--cache-dir", default=None,
        help="artifact cache directory (default: REPRO_CACHE_DIR or ~/.cache/repro-appx)",
    )
    figs.add_argument("--output", help="also write all rows to this JSON file")

    cache = commands.add_parser(
        "cache", help="inspect / clear the analysis artifact cache"
    )
    cache.add_argument("--clear", action="store_true", help="drop every entry")
    cache.add_argument(
        "--invalidate", metavar="APP", help="drop one app's entries"
    )
    cache.add_argument("--cache-dir", default=None, help="cache directory")

    bench = commands.add_parser(
        "bench", help="signature-dispatch microbenchmark (indexed vs naive)"
    )
    bench.add_argument("--requests", type=int, default=10_000)
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument(
        "--output",
        default="BENCH_matching.json",
        help="trajectory file to write (default: BENCH_matching.json)",
    )

    scale = commands.add_parser(
        "scale", help="serving-core load harness (open-loop Poisson users)"
    )
    scale.add_argument(
        "--users", type=int, nargs="+", default=[100, 1000],
        help="population sizes to sweep (default: 100 1000)",
    )
    scale.add_argument(
        "--duration", type=float, default=10.0,
        help="virtual seconds of workload per cell (default: 10)",
    )
    scale.add_argument(
        "--apps", nargs="+", default=["wish", "doordash"],
        help="apps served by the shared proxy (default: wish doordash)",
    )
    scale.add_argument(
        "--rate", type=float, default=0.5,
        help="requests per user per virtual second (default: 0.5)",
    )
    scale.add_argument("--seed", type=int, default=0)
    scale.add_argument(
        "--max-entries-per-user", type=int, default=None,
        help="bound each user's cache shard (LRU eviction)",
    )
    scale.add_argument(
        "--strategy", choices=["appx", "history", "none"], default="appx",
        help="prefetch strategy: appx (dependency-driven), history "
             "(most-frequent-successor baseline), none (default: appx)",
    )
    scale.add_argument(
        "--compare-strategies", action="store_true",
        help="run all three strategies on the identical workload and "
             "print the comparison table (uses the largest --users value)",
    )
    scale.add_argument(
        "--learn-mode", choices=["inline", "deferred"], default="deferred",
        help="deferred: request path only matches + enqueues, the learn "
             "pipeline runs in a budgeted drain off the critical path; "
             "inline: learn on observe (differential oracle; the seed "
             "behavior) (default: deferred)",
    )
    scale.add_argument(
        "--max-entries-total", type=int, default=None,
        help="global cache entry budget shared across all users",
    )
    scale.add_argument(
        "--adaptive-budget", action="store_true",
        help="apportion --max-entries-total by recent per-user hit mass",
    )
    scale.add_argument(
        "--admission-threshold", type=float, default=None, metavar="PROB",
        help="hit-aware admission (§4.4): stop prefetching a signature "
             "once fewer than PROB of its resolved prefetches (served, or "
             "evicted/expired/overwritten unserved) served a hit "
             "(default: 0.05; 0 turns the gate off)",
    )
    scale.add_argument(
        "--estimate-expiration", action="store_true",
        help="learn per-signature TTLs online by probing (§4.3) instead "
             "of using the configured defaults",
    )
    scale.add_argument(
        "--output", default=None,
        help="also write the sweep rows to this JSON file",
    )
    scale.add_argument(
        "--trace", default=None, metavar="JSONL",
        help="export sampled request-lifecycle traces to this JSONL file",
    )
    scale.add_argument(
        "--trace-sample", type=float, default=None, metavar="RATE",
        help="trace sampling rate in [0, 1] (arms tracing; default 1.0 "
             "when --trace is given)",
    )
    scale.add_argument(
        "--trace-seed", type=int, default=0,
        help="sampling PRNG seed (default: 0, deterministic sample set)",
    )
    scale.add_argument(
        "--prom", default=None, metavar="FILE",
        help="write a Prometheus text-format metrics dump after the sweep "
             "(atomic: tmp file + rename, scrapers never see a torn dump)",
    )
    scale.add_argument(
        "--warm-start", action="store_true",
        help="start every session past its first request so dependency "
             "prefetching is armed from t=0",
    )
    scale.add_argument(
        "--learn-queue-capacity", type=int, default=None, metavar="N",
        help="bound the deferred learn queue (overflow drops + counter)",
    )
    scale.add_argument(
        "--learn-drain-budget", type=int, default=None, metavar="N",
        help="max learn observations drained per request pump",
    )
    scale.add_argument(
        "--telemetry", action="store_true",
        help="arm the live telemetry plane: rolling-window rates and "
             "percentiles sampled every 0.5 virtual seconds",
    )
    scale.add_argument(
        "--slo", nargs="?", const="benchmarks/slo.json", default=None,
        metavar="FILE",
        help="evaluate SLO burn rates per window against FILE (default: "
             "benchmarks/slo.json); a violated objective makes the "
             "command exit 1",
    )
    scale.add_argument(
        "--slo-report", default=None, metavar="FILE",
        help="write the end-of-run SLO verdict as JSON (requires --slo)",
    )
    scale.add_argument(
        "--heartbeat-interval", type=float, default=None, metavar="SECONDS",
        help="ship windowed snapshots to the supervisor every SECONDS of "
             "virtual time (default: 1.0 when --slo is set with "
             "--workers > 1, else off)",
    )
    scale.add_argument(
        "--no-backpressure", action="store_true",
        help="disable the closed loop that grows learn drain budgets on "
             "overflow and tightens admission on sustained hit-rate burn",
    )
    scale.add_argument(
        "--workers", type=int, default=1,
        help="shard users across N proxy worker processes via consistent "
             "hashing (1 = serve in-process; default: 1)",
    )
    scale.add_argument(
        "--worker-timeout", type=float, default=300.0, metavar="SECONDS",
        help="fleet startup / serve deadline per phase (default: 300)",
    )

    lint = commands.add_parser(
        "lint", help="AST static-analysis gate (see DESIGN.md §14)"
    )
    lint.add_argument(
        "paths", nargs="*", default=["src"],
        help="files/directories to lint (default: src)",
    )
    lint.add_argument(
        "--strict", action="store_true",
        help="also flag unused suppressions (the CI configuration)",
    )
    lint.add_argument(
        "--json", nargs="?", const="-", default=None, metavar="FILE",
        help="write the JSON report to FILE ('-' or bare flag: stdout)",
    )
    lint.add_argument(
        "--root", default=None,
        help="repo root for relpath/profile resolution (default: cwd)",
    )
    lint.add_argument(
        "--list-rules", action="store_true",
        help="print every registered rule and exit",
    )

    stats = commands.add_parser(
        "stats", help="per-stage / per-cause rollup of a JSONL trace export"
    )
    stats.add_argument("trace", help="trace file written by 'scale --trace'")
    stats.add_argument(
        "--prom", default=None, metavar="FILE",
        help="also write Prometheus text-format metrics rebuilt from the "
             "trace (atomic: tmp file + rename)",
    )
    stats.add_argument(
        "--json", default=None, metavar="FILE",
        help="also write the aggregate summary as JSON",
    )

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "apps": _command_apps,
        "analyze": _command_analyze,
        "verify": _command_verify,
        "demo": _command_demo,
        "experiment": _command_experiment,
        "figs": _command_figs,
        "cache": _command_cache,
        "bench": _command_bench,
        "scale": _command_scale,
        "stats": _command_stats,
        "lint": _command_lint,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    raise SystemExit(main())
