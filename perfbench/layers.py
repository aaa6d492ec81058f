"""Which functions the traced run wraps, and the per-layer metrics.

Layers are named after the ``repro`` modules they live in.  The
origin backends (``server``) and the simulated device (``device``) are
harness: they stand in for the internet and the phone, so their busy
time is reported apart from the system's.

Left unwrapped on purpose: ``proxy/refresher.py`` (no caller in
``src/``), the process fleet (``--workers``; two cores cannot show it
scaling) and ``proxy/expiration.py`` (off by default).  Whatever no
wrapper covers — the ``netsim`` kernel, harness glue, private helpers
called outside a span — is ``trace.unattributed_share``.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from tracer import SpanTracer

Target = Tuple[str, object, str, Optional[Callable]]

#: stage_latency_us name -> (span, parent span or None).  Each stage
#: timer encloses exactly one such span, so the cross-check asks for
#: equal call counts, a span total no larger than the stage total, and
#: a shortfall of at most CROSS_CHECK_GAP_US per call: the cost of the
#: two timers themselves (2-7 us per call measured on a 2-core x86 host)
CROSS_CHECK = {
    "proxy.dispatch": ("proxy.instances.match", "proxy.proxy.handle_request"),
    "proxy.cache_lookup": ("proxy.cache.lookup", None),
    "proxy.learn": ("proxy.learning.observe", "proxy.proxy.handle_request"),
    "proxy.learn_drain": ("proxy.learning.drain_learn_queue", None),
}
CROSS_CHECK_GAP_US = 15.0


def _on_lookup(tracer: SpanTracer, args, result) -> None:
    tracer.count("lookup_hit" if result[1] == "hit" else "lookup_miss")


def _on_put(tracer: SpanTracer, args, result) -> None:
    cache = args[0]
    tracer.note("cache", cache)
    tracer.peak("cache:{}".format(id(cache)), len(cache))


def _on_submit(tracer: SpanTracer, args, result) -> None:
    prefetcher = args[0]
    tracer.note("prefetcher", prefetcher)
    tracer.peak("prefetch_queue", prefetcher.waiting)


def _on_observe(tracer: SpanTracer, args, result) -> None:
    learner = args[0]
    tracer.note("learner", learner)
    tracer.peak("learn_queue", learner.learn_queue_depth)


def setup_targets() -> List[Target]:
    from repro.device.runtime import AppRuntime
    from repro.experiments import scale, scenario

    return [
        ("analysis.analyze_apk", scale, "analyze_apk", None),
        ("analysis.analyze_apk", scenario, "analyze_apk", None),
        ("proxy.verification.run_verification", scenario, "run_verification", None),
        ("device.launch", AppRuntime, "launch", None),
        ("device.dispatch", AppRuntime, "dispatch", None),
    ]


def serve_targets() -> List[Target]:
    from repro.device.runtime import AppRuntime
    from repro.metrics.live import LiveTelemetry
    from repro.proxy.cache import PrefetchCache
    from repro.proxy.instances import RequestInstance, SignatureMatcher
    from repro.proxy.learning import DynamicLearner
    from repro.proxy.multiapp import MultiAppProxy, MultiAppTransport
    from repro.proxy.prefetcher import Prefetcher
    from repro.proxy.proxy import AccelerationProxy, ProxiedTransport
    from repro.server.origin import OriginServer

    return [
        ("proxy.multiapp.handle_request", MultiAppProxy, "handle_request", None),
        ("proxy.multiapp.purge_expired", MultiAppProxy, "purge_expired", None),
        ("proxy.multiapp.send", MultiAppTransport, "send", None),
        ("proxy.proxy.handle_request", AccelerationProxy, "handle_request", None),
        ("proxy.proxy.pump_learning", AccelerationProxy, "pump_learning", None),
        ("proxy.proxy.send", ProxiedTransport, "send", None),
        ("proxy.cache.lookup", PrefetchCache, "lookup", _on_lookup),
        ("proxy.cache.put", PrefetchCache, "put", _on_put),
        ("proxy.cache.purge_expired", PrefetchCache, "purge_expired", None),
        ("proxy.prefetcher.submit", Prefetcher, "submit", _on_submit),
        # private, but it is the whole prefetch issue/store step; left
        # out, the background path would read as unattributed
        ("proxy.prefetcher.fetch", Prefetcher, "_fetch", None),
        ("proxy.learning.observe", DynamicLearner, "observe", _on_observe),
        ("proxy.learning.drain_learn_queue", DynamicLearner, "drain_learn_queue", None),
        ("proxy.instances.match", SignatureMatcher, "match", None),
        ("proxy.instances.build", RequestInstance, "build", None),
        ("metrics.live.tick", LiveTelemetry, "tick", None),
        ("metrics.live.on_request", LiveTelemetry, "on_request", None),
        ("server.handle", OriginServer, "handle", None),
        ("device.launch", AppRuntime, "launch", None),
        ("device.dispatch", AppRuntime, "dispatch", None),
    ]


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, read off its name."""
    if name.startswith("trace.xcheck_gap_us.") or name.endswith("_us_per_req"):
        return "us"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_share", "_ratio", "_rate")) or name == "trace.overhead":
        return "ratio"
    if name.endswith("_per_req"):
        return "1/req"
    return "count"


def _layer_self(exclusive: Dict[str, float], layer: str) -> float:
    prefix = layer + "."
    return sum(v for name, v in exclusive.items() if name.startswith(prefix))


def setup_metrics(tracer: SpanTracer) -> Dict[str, float]:
    """Self seconds per set-up layer, from a traced set-up."""
    _, exclusive = tracer.totals()
    return {
        "analysis.setup_s": _layer_self(exclusive, "analysis"),
        "proxy.verification.setup_s": _layer_self(exclusive, "proxy.verification"),
        "device.record_s": _layer_self(exclusive, "device"),
    }


def serve_metrics(
    tracer: SpanTracer, loop_wall_s: float, stages: Dict[str, Dict[str, float]]
) -> Tuple[Dict[str, float], Dict[str, Dict[str, object]]]:
    """Per-layer metrics of a traced serve phase, plus the cross-check.

    ``loop_wall_s`` is the traced event loop's wall time; every serve
    span runs inside it, so the self times plus the unattributed rest
    add up to it.  ``stages`` is the run's own ``stage_latency_us``
    table (count and total seconds per stage) for the cross-check.
    """
    inclusive, exclusive = tracer.totals()
    calls = tracer.call_count
    requests = calls("proxy.proxy.handle_request")

    def per_req(value: float) -> float:
        return value / requests if requests else 0.0

    prefetchers = tracer.instances("prefetcher")
    caches = tracer.instances("cache")
    learners = tracer.instances("learner")
    issued = sum(p.issued for p in prefetchers)
    hits = tracer.counts.get("lookup_hit", 0)
    misses = tracer.counts.get("lookup_miss", 0)
    skipped = sum(
        value
        for p in prefetchers
        for key, value in p.stats().items()
        if key.startswith("skipped_")
    )
    server_s = _layer_self(exclusive, "server")
    device_s = _layer_self(exclusive, "device")
    attributed = sum(exclusive.values())
    metrics = {
        "proxy.prefetcher.submit_s": exclusive["proxy.prefetcher.submit"],
        "proxy.prefetcher.fetch_s": exclusive["proxy.prefetcher.fetch"],
        "proxy.prefetcher.submitted": calls("proxy.prefetcher.submit"),
        "proxy.prefetcher.issued": issued,
        "proxy.prefetcher.skipped": skipped,
        "proxy.prefetcher.issued_per_req": per_req(issued),
        "proxy.prefetcher.useful_ratio": hits / issued if issued else 0.0,
        "proxy.prefetcher.queue_peak": tracer.peaks.get("prefetch_queue", 0),
        "proxy.cache.lookup_s": exclusive["proxy.cache.lookup"],
        "proxy.cache.hits": hits,
        "proxy.cache.misses": misses,
        "proxy.cache.hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        "proxy.cache.put_s": exclusive["proxy.cache.put"],
        "proxy.cache.stored": sum(c.stored for c in caches),
        "proxy.cache.evicted": sum(c.lru_evictions + c.expired_evictions for c in caches),
        "proxy.cache.wasted": sum(c.wasted for c in caches),
        "proxy.cache.peak_entries": sum(
            value for key, value in tracer.peaks.items() if key.startswith("cache:")
        ),
        "proxy.cache.purge_s": exclusive["proxy.cache.purge_expired"],
        "proxy.learning.observe_s": exclusive["proxy.learning.observe"],
        "proxy.learning.observe_calls": calls("proxy.learning.observe"),
        "proxy.learning.drain_s": exclusive["proxy.learning.drain_learn_queue"],
        "proxy.learning.drained": sum(l.deferred_drained for l in learners),
        "proxy.learning.overflows": sum(l.queue_overflows for l in learners),
        "proxy.learning.queue_peak": tracer.peaks.get("learn_queue", 0),
        "proxy.instances.build_s": exclusive["proxy.instances.build"],
        "proxy.instances.build_calls": calls("proxy.instances.build"),
        "proxy.instances.builds_per_req": per_req(calls("proxy.instances.build")),
        "proxy.instances.match_s": exclusive["proxy.instances.match"],
        "proxy.instances.match_calls": calls("proxy.instances.match"),
        "proxy.proxy.self_s": _layer_self(exclusive, "proxy.proxy"),
        "proxy.proxy.requests": requests,
        "proxy.multiapp.self_s": _layer_self(exclusive, "proxy.multiapp"),
        "metrics.live.tick_s": exclusive["metrics.live.tick"],
        "metrics.live.ticks": calls("metrics.live.tick"),
        "metrics.live.self_s": _layer_self(exclusive, "metrics.live"),
        "server.busy_s": server_s,
        "server.calls": calls("server.handle"),
        "server.calls_per_req": per_req(calls("server.handle")),
        "device.busy_s": device_s,
        "device.interactions": calls("device.launch") + calls("device.dispatch"),
        "trace.spans": len(tracer.start),
        "trace.loop_s": loop_wall_s,
        "trace.unattributed_share": (
            (loop_wall_s - attributed) / loop_wall_s if loop_wall_s else 0.0
        ),
        "trace.harness_share": (
            (server_s + device_s) / loop_wall_s if loop_wall_s else 0.0
        ),
    }
    cross: Dict[str, Dict[str, float]] = {}
    for stage, (span, parent) in CROSS_CHECK.items():
        count, traced = tracer.inclusive_under(span, parent)
        internal = stages.get(stage, {"count": 0, "total_s": 0.0})
        gap_us = (
            1e6 * (internal["total_s"] - traced) / count if count else 0.0
        )
        cross[stage] = {
            "span_calls": count,
            "stage_calls": internal["count"],
            "span_s": traced,
            "stage_s": internal["total_s"],
            "gap_us_per_call": gap_us,
            "agrees": count == internal["count"]
            and traced <= internal["total_s"]
            and gap_us <= CROSS_CHECK_GAP_US,
        }
        metrics["trace.xcheck_gap_us." + stage.split(".", 1)[1]] = gap_us
    return metrics, cross
