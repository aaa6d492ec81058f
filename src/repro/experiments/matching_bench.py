"""Signature-dispatch microbenchmark (``python -m repro bench``).

Synthesizes a request workload from the five bundled apps' signature
sets — concrete URIs rendered from the URI templates, repeated
requests to exercise the dispatch memo, and deliberate misses — then
matches it twice: once through the indexed
:class:`~repro.proxy.instances.SignatureMatcher` hot path and once
through the retained naive linear scan.  Work is compared via
:mod:`repro.metrics.perf` counters (regex attempts, candidates
examined), not wall clock alone, and every request's outcome is
cross-checked between the two paths, so the benchmark doubles as a
large differential test.  The result dict is what ``python -m repro
bench`` writes to ``BENCH_matching.json``.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Optional, Tuple

from repro.analysis import analyze_apk
from repro.analysis.model import AltAtom, ConstAtom
from repro.apps import all_apps
from repro.httpmsg.message import Request
from repro.httpmsg.uri import Uri
from repro.metrics.catalog import STAGE_SECONDS
from repro.metrics.perf import PERF, stage
from repro.proxy.instances import (
    RuntimeSignature,
    SignatureMatcher,
    build_runtime_signatures,
)


def _render_uri(
    signature: RuntimeSignature, rng: random.Random, host: str
) -> Optional[str]:
    """One concrete URI the signature's template accepts, or None."""
    parts: List[str] = []
    atoms = signature.signature.request.uri.atoms
    for position, atom in enumerate(atoms):
        if isinstance(atom, ConstAtom):
            parts.append(str(atom.value))
        elif isinstance(atom, AltAtom):
            option = rng.choice(atom.options)
            if not option.is_const():
                return None
            parts.append(str(option.const_value()))
        elif position == 0:
            # leading wildcard: in every bundled app this is the
            # env:config host tag, so substitute a plausible origin
            parts.append(host)
        else:
            parts.append("{:x}".format(rng.randrange(16 ** 8)))
    return "".join(parts)


def synthesize_workload(
    signature_sets: Dict[str, List[RuntimeSignature]],
    total_requests: int,
    seed: int = 0,
    repeat_fraction: float = 0.3,
    miss_fraction: float = 0.2,
) -> List[Request]:
    """A mixed match/repeat/miss workload over all apps' signatures.

    ``repeat_fraction`` of the requests re-send an earlier URI
    verbatim (the dispatch-memo case); ``miss_fraction`` are
    deliberate non-matches (unknown paths on known hosts, unknown
    hosts, wrong methods).
    """
    rng = random.Random(seed)
    renderable: List[Tuple[RuntimeSignature, str]] = []
    base: List[Request] = []
    for app, signatures in sorted(signature_sets.items()):
        host = "https://api.{}.example.com".format(app)
        for signature in signatures:
            uri_string = _render_uri(signature, rng, host)
            if uri_string is None:
                continue
            try:
                uri = Uri.parse(uri_string)
            except ValueError:
                continue
            renderable.append((signature, host))
            base.append(Request(signature.method, uri))
    if not base:
        raise ValueError("no synthesizable signatures")
    requests: List[Request] = []
    while len(requests) < total_requests:
        roll = rng.random()
        if requests and roll < repeat_fraction:
            template = rng.choice(requests)
            requests.append(Request(template.method, template.uri.copy()))
        elif roll < repeat_fraction + miss_fraction:
            kind = rng.randrange(3)
            sample = rng.choice(base)
            if kind == 0:  # unknown path on a known host
                uri = sample.uri.copy()
                uri.path = "/nope/{:x}".format(rng.randrange(16 ** 6))
                requests.append(Request(sample.method, uri))
            elif kind == 1:  # unknown host entirely
                requests.append(
                    Request(
                        sample.method,
                        Uri.parse(
                            "https://unknown-{:x}.example.org/misc/{:x}".format(
                                rng.randrange(16 ** 4), rng.randrange(16 ** 6)
                            )
                        ),
                    )
                )
            else:  # wrong method for a known URI
                method = "PUT" if sample.method != "PUT" else "DELETE"
                requests.append(Request(method, sample.uri.copy()))
        else:
            # fresh render: wildcard/dependency atoms get new values,
            # so distinct URIs keep arriving and the memo cannot absorb
            # the whole workload
            signature, host = rng.choice(renderable)
            uri_string = _render_uri(signature, rng, host)
            try:
                requests.append(Request(signature.method, Uri.parse(uri_string)))
            except ValueError:
                requests.append(Request(signature.method, rng.choice(base).uri.copy()))
    return requests


def _run_pass(
    match: Callable[[Request], Optional[RuntimeSignature]], requests: List[Request]
) -> Tuple[List[Optional[str]], Dict[str, int], float]:
    """Dispatch every request through ``match`` (one matcher path)."""
    outcomes: List[Optional[str]] = []
    with PERF.capture():
        with stage(None, "pass"):
            for request in requests:
                found = match(request)
                outcomes.append(found.site if found else None)
        seconds = PERF.registry.histogram(STAGE_SECONDS, {"stage": "pass"}).sum
        counters = dict(PERF.counters)
    return outcomes, counters, seconds


def run_matching_bench(
    total_requests: int = 10_000, seed: int = 0
) -> Dict[str, object]:
    """Run the dispatch benchmark; returns the JSON-ready trajectory."""
    signature_sets: Dict[str, List[RuntimeSignature]] = {}
    for name, spec in all_apps().items():
        signature_sets[name] = build_runtime_signatures(
            analyze_apk(spec.build_apk())
        )
    signature_count = sum(len(s) for s in signature_sets.values())
    combined = [s for signatures in signature_sets.values() for s in signatures]
    requests = synthesize_workload(signature_sets, total_requests, seed=seed)

    matcher = SignatureMatcher(combined)
    naive_outcomes, naive_counters, naive_wall = _run_pass(
        matcher.naive_match, requests
    )
    indexed_outcomes, indexed_counters, indexed_wall = _run_pass(
        matcher.match, requests
    )
    mismatches = sum(
        1 for a, b in zip(indexed_outcomes, naive_outcomes) if a != b
    )
    matched = sum(1 for site in indexed_outcomes if site is not None)
    n = float(len(requests)) or 1.0
    naive_attempts = naive_counters.get("matcher.naive_regex_attempts", 0)
    indexed_attempts = indexed_counters.get("matcher.regex_attempts", 0)
    return {
        "workload": {
            "requests": len(requests),
            "matched": matched,
            "seed": seed,
            "apps": sorted(signature_sets),
            "signatures": signature_count,
        },
        "naive": {
            "wall_s": naive_wall,
            "regex_attempts": naive_attempts,
            "regex_attempts_per_request": naive_attempts / n,
        },
        "indexed": {
            "wall_s": indexed_wall,
            "regex_attempts": indexed_attempts,
            "regex_attempts_per_request": indexed_attempts / n,
            "candidates_per_request": indexed_counters.get("matcher.candidates", 0) / n,
            "candidate_checks_per_request": indexed_counters.get(
                "matcher.candidate_checks", 0
            )
            / n,
            "memo_hits": indexed_counters.get("matcher.memo_hits", 0),
            "anchor_rejects": indexed_counters.get("matcher.anchor_rejects", 0),
        },
        "differential": {"mismatches": mismatches},
        "derived": {
            "regex_attempt_ratio": (
                naive_attempts / indexed_attempts if indexed_attempts else float("inf")
            ),
            "wall_speedup": naive_wall / indexed_wall if indexed_wall else float("inf"),
        },
    }
