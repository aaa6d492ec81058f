"""History-based prefetching baseline (PALOMA-style).

The APPx strategy prefetches from *statically analyzed* request
dependencies.  The literature's main alternative (Zhao et al.,
PALOMA) predicts the next request from each user's *observed history*:
remember, per user, which exact request most frequently followed the
one just seen, and prefetch that most-frequent successor.

:class:`HistoryPrefetcher` implements that baseline so the scale
harness can run a three-way comparison (``--strategy
{appx,history,none}``): it has no knowledge of signatures, wildcards,
or dependencies — just per-user first-order transition counts over
exact request keys.  It shares the exact-match
:class:`~repro.proxy.cache.PrefetchCache`, so hits are measured under
identical serving rules as the APPx strategy.

Determinism: transition counts tie-break lexicographically on the
exact key, so replays are reproducible.
"""

from __future__ import annotations

from typing import Dict, Generator, Tuple

from repro.httpmsg.message import Request
from repro.metrics.perf import PERF
from repro.netsim.sim import Simulator
from repro.netsim.transport import OriginMap
from repro.proxy.cache import PrefetchCache
from repro.proxy.prefetcher import origin_fetch


class HistoryPrefetcher:
    """Most-frequent-successor prefetching over exact request keys."""

    def __init__(
        self,
        sim: Simulator,
        origins: OriginMap,
        cache: PrefetchCache,
        site_for=None,
        ttl: float = 600.0,
        top_n: int = 1,
        max_concurrent: int = 32,
    ) -> None:
        self.sim = sim
        self.origins = origins
        self.cache = cache
        #: optional ``site_for(request) -> str`` labeler so hit stats
        #: stay comparable with the signature-keyed APPx accounting;
        #: falls back to the request host
        self.site_for = site_for
        self.ttl = ttl
        self.top_n = top_n
        self.max_concurrent = max_concurrent
        #: per-user last-seen exact key
        self._last_key: Dict[str, str] = {}
        #: (user, prev_key) -> {next_key: count}
        self._transitions: Dict[Tuple[str, str], Dict[str, int]] = {}
        #: exact key -> a replayable copy of the request
        self._requests: Dict[str, Request] = {}
        self._inflight = 0
        self.issued = 0
        #: issued prefetches per ``site_for`` label
        self.issued_by_site: Dict[str, int] = {}
        self.skipped_concurrency = 0
        self.skipped_duplicate = 0
        self.errors = 0

    # ------------------------------------------------------------------
    def _site(self, request: Request) -> str:
        if self.site_for is not None:
            label = self.site_for(request)
            if label:
                return label
        return request.uri.host

    def observe(self, user: str, request: Request, now: float) -> int:
        """Record one demand request; prefetch its predicted successors.

        Returns how many prefetches were started.
        """
        key = request.exact_key()
        if key not in self._requests:
            self._requests[key] = request.copy()
        previous = self._last_key.get(user)
        self._last_key[user] = key
        if previous is not None and previous != key:
            edge = self._transitions.setdefault((user, previous), {})
            edge[key] = edge.get(key, 0) + 1
        started = 0
        counts = self._transitions.get((user, key))
        if not counts:
            return 0
        ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
        for next_key, _ in ranked[: self.top_n]:
            prediction = self._requests.get(next_key)
            if prediction is None:
                continue
            if self.cache.contains_fresh(user, prediction, now):
                self.skipped_duplicate += 1
                continue
            if self._inflight >= self.max_concurrent:
                self.skipped_concurrency += 1
                break
            self._inflight += 1
            self.sim.spawn(self._fetch(user, prediction.copy()))
            started += 1
        return started

    def _fetch(self, user: str, request: Request) -> Generator:
        try:
            response, _ = yield self.sim.spawn(
                origin_fetch(self.sim, self.origins, request, user)
            )
            self.issued += 1
            site = self._site(request)
            self.issued_by_site[site] = self.issued_by_site.get(site, 0) + 1
            if PERF.enabled:
                PERF.incr("history.issued")
            if response.ok:
                self.cache.put(
                    user,
                    request,
                    response,
                    site,
                    now=self.sim.now,
                    ttl=self.ttl,
                )
            else:
                self.errors += 1
        finally:
            self._inflight -= 1
        return None

    def stats(self) -> Dict[str, int]:
        return {
            "issued": self.issued,
            "errors": self.errors,
            "tracked_users": len(self._last_key),
            "transitions": len(self._transitions),
            "skipped_duplicate": self.skipped_duplicate,
            "skipped_concurrency": self.skipped_concurrency,
        }
