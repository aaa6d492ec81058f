"""Prefetch issuing with priority scheduling (§4.5, §5).

Eligibility gates (§4.4): per-signature ``prefetch`` flag, probability
(per-signature × global), predecessor-field conditions, the chain-depth
bound, and the data-usage budget (C4).  When more requests are ready
than the concurrency limit allows, the waiting queue is drained in
priority order: a signature's *yield* — cache hits per prefetch issued,
0 before its first issue — with FIFO on ties.

The paper ranks by a linear combination of the signature's
running-average origin response time and its hit rate ("prioritize
requests that take longer to complete and signatures that generate
higher hit rates").  This scheduler departs from it on purpose.  A
prefetch holds a slot for about its origin response time and, on a hit,
saves about that same time, so latency saved per slot-second *is* the
yield; adding the response time counts the same cost twice.  Under a
backed-up pipe that double count let slow signatures clients rarely
used drain first while the ones they used waited until the user had
moved on.  ``avg_response_time`` stays as a per-signature statistic.

Lazy epoch-stamped drain
------------------------
The seed re-ranked the *entire* waiting queue on every completed fetch
(rebuild + heapify: O(W) per drain), because a completion moves the §5
signals.  But priority is a per-*site* property, so the queue keeps one
FIFO per site plus a heap holding at most one live head entry per site,
stamped with that site's *epoch*.  Whenever a site's yield moves — a
completed issue (``_fetch``) or a cache hit (a cache hit listener) —
the epoch bumps and a fresh head entry is pushed eagerly; stale stamps
are discarded on pop.  Each drain step is O(log S) for S sites with
queued work, and the pop order is exactly the rebuild-drain's order:
max current priority, FIFO on ties (per-site FIFOs preserve sequence
order, and every heap entry carries its site's current head sequence).
The seed's rebuild-everything drain lives on as the differential oracle
``tests/oracles/prefetcher.py`` (``tests/test_prefetcher_drain_equiv.py``
replays recorded workloads through both and asserts identical issue
order).
"""

from __future__ import annotations

import heapq
import random
from collections import deque
from typing import Deque, Dict, Generator, List, Optional, Set, Tuple

from repro.httpmsg.message import Request, Response, Transaction
from repro.metrics.perf import PERF, stage
from repro.metrics.trace import TRACER, TraceContext
from repro.netsim.sim import Delay, Simulator
from repro.netsim.transport import OriginMap
from repro.proxy.cache import PrefetchCache
from repro.proxy.config import ProxyConfig
from repro.proxy.learning import DynamicLearner, ReadyPrefetch
from repro.proxy.popularity import PopularityTracker, item_key_for_instance

def origin_fetch(
    sim: Simulator, origins: OriginMap, request: Request, user: str
) -> Generator:
    """Process: proxy → origin round trip; returns (response, bytes)."""
    endpoint = origins.endpoint_for(request)
    if endpoint is None:
        return Response(502), request.wire_size()
    link = origins.link_for(request)
    request_size = request.wire_size()
    yield Delay(link.transfer_delay(sim.now, request_size))
    response = yield sim.spawn(endpoint.handle(request, user))
    response_size = response.wire_size()
    yield Delay(link.transfer_delay(sim.now, response_size))
    return response, request_size + response_size


class Prefetcher:
    """Issues ready prefetch requests against the origin servers."""

    def __init__(
        self,
        sim: Simulator,
        origins: OriginMap,
        cache: PrefetchCache,
        config: ProxyConfig,
        learner: DynamicLearner,
        seed: int = 0,
        max_concurrent: int = 64,
    ) -> None:
        self.sim = sim
        self.origins = origins
        self.cache = cache
        self.config = config
        self.learner = learner
        self.rng = random.Random(seed)
        self.max_concurrent = max_concurrent
        #: ablation switch: False degrades the waiting queue to FIFO
        self._priority_enabled = True
        #: client-demand popularity per (site, item) — §6.3 extension
        self.popularity = PopularityTracker()
        self._active = 0
        self._sequence = 0
        #: waiting queues: per-site FIFO of (seq, queued_at, ready), a
        #: heap of (-priority, head_seq, site, epoch) head entries, the
        #: current per-site epoch, and the total queued count
        self._site_fifos: Dict[str, Deque[Tuple[int, float, ReadyPrefetch]]] = {}
        self._site_heap: List[Tuple[float, int, str, int]] = []
        self._site_epoch: Dict[str, int] = {}
        self._waiting_count = 0
        self.stale_heap_entries = 0
        self._inflight: Set[Tuple[str, str]] = set()
        #: running average origin response time per signature site
        self.avg_response_time: Dict[str, float] = {}
        self._response_samples: Dict[str, int] = {}
        cache.add_hit_listener(self._bump_epoch)
        self.prefetch_bytes = 0
        self.issued = 0
        self.issued_by_site: Dict[str, int] = {}
        #: simulated seconds from submit to issue, summed per site
        self.queue_wait_by_site: Dict[str, float] = {}
        self.success_by_site: Dict[str, int] = {}
        self.error_by_site: Dict[str, int] = {}
        #: one example request per site (verification probes reuse them)
        self.sample_requests: Dict[str, Request] = {}
        #: optional §4.3 online TTL learner (see proxy/expiration.py);
        #: when set, stores use its learned per-signature TTLs
        self.expiration = None
        self.skipped_policy = 0
        self.skipped_probability = 0
        self.skipped_budget = 0
        self.skipped_depth = 0
        self.skipped_duplicate = 0
        self.skipped_condition = 0
        self.skipped_popularity = 0
        self.skipped_admission = 0
        self.errors = 0

    # ------------------------------------------------------------------
    @property
    def priority_enabled(self) -> bool:
        return self._priority_enabled

    @priority_enabled.setter
    def priority_enabled(self, value: bool) -> None:
        if value != self._priority_enabled:
            self._priority_enabled = value
            # every queued site's effective priority just changed
            for site in list(self._site_fifos):
                self._bump_epoch(site)

    @property
    def waiting(self) -> int:
        """Requests queued behind the concurrency limit."""
        return self._waiting_count

    # ------------------------------------------------------------------
    def submit(self, ready: ReadyPrefetch) -> str:
        """Apply the policy gates, then schedule (or queue) the fetch.

        Returns the outcome — ``"started"``, ``"queued"`` (behind the
        concurrency limit), or the ``"skipped_*"`` gate that rejected
        the request — so callers (and trace spans) can attribute what
        happened to each ready prefetch.
        """
        if PERF.enabled:
            PERF.incr("prefetch.submitted")
        site = ready.instance.signature.site
        policy = self.config.policy(site)
        if not policy.prefetch:
            self.skipped_policy += 1
            return "skipped_policy"
        if ready.instance.depth > self.config.max_chain_depth:
            self.skipped_depth += 1
            return "skipped_depth"
        if policy.condition is not None and not policy.condition.evaluate(
            getattr(ready.instance, "pred_context", {})
        ):
            self.skipped_condition += 1
            return "skipped_condition"
        if policy.popularity_top_k is not None and not self.popularity.allows(
            site, item_key_for_instance(ready.instance), policy.popularity_top_k
        ):
            self.skipped_popularity += 1
            return "skipped_popularity"
        if not self._admitted(site):
            self.skipped_admission += 1
            return "skipped_admission"
        probability = self.config.effective_probability(site)
        if probability < 1.0 and self.rng.random() >= probability:
            self.skipped_probability += 1
            return "skipped_probability"
        if (
            self.config.data_budget_bytes is not None
            and self.prefetch_bytes >= self.config.data_budget_bytes
        ):
            self.skipped_budget += 1
            return "skipped_budget"
        key = (ready.instance.user, ready.request.exact_key())
        if key in self._inflight or self.cache.contains_fresh(
            ready.instance.user, ready.request, self.sim.now
        ):
            self.skipped_duplicate += 1
            return "skipped_duplicate"
        self._inflight.add(key)
        if self._active < self.max_concurrent:
            self._start(ready, self.sim.now)
            return "started"
        self._sequence += 1
        self._enqueue_waiting(site, self._sequence, ready)
        if PERF.enabled:
            PERF.peak("prefetch.queue_peak", self.waiting)
        return "queued"

    def _admitted(self, site: str) -> bool:
        """Hit-aware admission: does ``site`` still earn prefetches?

        A signature is judged on its *resolved* prefetches only: stored
        entries that served a hit (``served_by_site``, once per entry)
        or left the cache unserved (``wasted_by_site``: evicted,
        expired or overwritten).  Its yield is served over resolved.
        Judging on issued count instead would read a useful signature
        as cold, because its hits lag its issues by the user's think
        time.  Below the governing threshold (per-policy
        ``min_hit_probability`` or the config-wide
        ``admission_threshold``) the signature stops prefetching,
        except for an ``admission_explore`` fraction kept flowing so a
        recovered signature can re-earn admission.  Until
        ``admission_min_issued`` outcomes have resolved the signature
        is admitted (no evidence yet).
        """
        threshold = self.config.admission_threshold_for(site)
        if not threshold:
            return True
        served = self.cache.served_by_site.get(site, 0)
        resolved = served + self.cache.wasted_by_site.get(site, 0)
        if resolved < self.config.admission_min_issued:
            return True
        if served / resolved >= threshold:
            return True
        return self.rng.random() < self.config.admission_explore

    def _yield(self, site: str) -> float:
        """Cache hits per prefetch issued for ``site``; 0 before any issue.

        The §5 queue priority.  Admission does not use it (see
        :meth:`_admitted`).
        """
        issued = self.issued_by_site.get(site, 0)
        return self.cache.hits.get(site, 0) / issued if issued else 0.0

    def ttl_for(self, site: str, response: Optional[Response] = None) -> float:
        """TTL for storing a ``site`` response: learned, else configured."""
        if self.expiration is not None:
            learned = self.expiration.ttl_for(site, response)
            if learned is not None:
                return learned
        return self.config.policy(site).expiration_time

    def _priority(self, site: str) -> float:
        if not self._priority_enabled:
            return 0.0  # heap degenerates to submission order
        return self._yield(site)

    # -- lazy-drain queue maintenance ----------------------------------
    def _enqueue_waiting(self, site: str, seq: int, ready: ReadyPrefetch) -> None:
        fifo = self._site_fifos.get(site)
        if fifo is None:
            fifo = self._site_fifos[site] = deque()
        fifo.append((seq, self.sim.now, ready))
        self._waiting_count += 1
        if len(fifo) == 1:
            self._push_head(site)

    def _push_head(self, site: str) -> None:
        """Push ``site``'s current head with its current priority."""
        fifo = self._site_fifos.get(site)
        if fifo:
            heapq.heappush(
                self._site_heap,
                (
                    -self._priority(site),
                    fifo[0][0],
                    site,
                    self._site_epoch.get(site, 0),
                ),
            )

    def _bump_epoch(self, site: str) -> None:
        """A priority input for ``site`` moved: outdate its heap entry.

        Pushing the replacement *eagerly* (not on pop) is what keeps
        the drain order identical to the rebuild oracle — priorities
        can rise as well as fall, and a risen site buried under its old
        stamp would otherwise drain too late.
        """
        self._site_epoch[site] = self._site_epoch.get(site, 0) + 1
        if self._site_fifos.get(site):
            self._push_head(site)

    def _start(self, ready: ReadyPrefetch, queued_at: float) -> None:
        site = ready.instance.signature.site
        self.queue_wait_by_site[site] = self.queue_wait_by_site.get(site, 0.0) + (
            self.sim.now - queued_at
        )
        self._active += 1
        self.sim.spawn(self._fetch(ready))

    # ------------------------------------------------------------------
    def _fetch(self, ready: ReadyPrefetch) -> Generator:
        site = ready.instance.signature.site
        user = ready.instance.user
        policy = self.config.policy(site)
        wire_request = ready.request.copy()
        for name, value in policy.add_header:
            wire_request.headers.add(name, value)
        started_at = self.sim.now
        # each background fetch is its own trace (kind="prefetch") —
        # it runs asynchronously, after the triggering request's trace
        # has already been filed
        trace = TRACER.begin(user, kind="prefetch") if TRACER.enabled else None
        if trace is not None:
            trace.tag("signature", site)
        try:
            with stage(trace, "origin_fetch", signature=site) as step:
                response, transferred = yield self.sim.spawn(
                    origin_fetch(self.sim, self.origins, wire_request, user)
                )
                step.tag(bytes=transferred)
            self.prefetch_bytes += transferred
            self.issued += 1
            self.issued_by_site[site] = self.issued_by_site.get(site, 0) + 1
            self._bump_epoch(site)
            if PERF.enabled:
                PERF.incr("prefetch.issued")
                PERF.registry.inc("prefetch_issued", labels={"signature": site})
            elapsed = self.sim.now - started_at
            self._record_response_time(site, elapsed)
            if site not in self.sample_requests:
                self.sample_requests[site] = ready.request.copy()
            if trace is not None:
                trace.tag("ok", response.ok)
            if response.ok:
                self.success_by_site[site] = self.success_by_site.get(site, 0) + 1
                with stage(trace, "store", signature=site):
                    self.cache.put(
                        user,
                        ready.request,
                        response,
                        site,
                        now=self.sim.now,
                        ttl=self.ttl_for(site, response),
                    )
                # chain prefetching (Fig. 3c): the prefetched response
                # may itself be a predecessor
                transaction = Transaction(
                    ready.request,
                    response,
                    started_at,
                    self.sim.now,
                    user=user,
                    prefetched=True,
                )
                self.submit_all(
                    self.learner.observe(
                        transaction, user, depth=ready.instance.depth, trace=trace
                    ),
                    trace,
                )
                # deferred mode parked the chain observation — pump the
                # drain here so chain prefetches still issue off this
                # background fetch instead of waiting for client traffic
                self.pump_learning(trace)
            else:
                self.errors += 1
                self.error_by_site[site] = self.error_by_site.get(site, 0) + 1
        finally:
            TRACER.finish(trace)
            self._inflight.discard((user, ready.request.exact_key()))
            self._active -= 1
            self._drain()
        return None

    def submit_all(
        self, ready_list: List[ReadyPrefetch], trace: Optional[TraceContext] = None
    ) -> None:
        """Submit ready prefetches in order, one ``prefetch_issue`` each."""
        for ready in ready_list:
            with stage(
                trace, "prefetch_issue", site=ready.instance.signature.site
            ) as step:
                step.tag(outcome=self.submit(ready))

    def pump_learning(
        self,
        trace: Optional[TraceContext] = None,
        budget: Optional[int] = None,
    ) -> int:
        """Pump the deferred learn drain; submit completed prefetches.

        The one pump behind both the proxy's request path (after each
        response) and this prefetcher's background fetches (after each
        chain observation).  No-op for inline-mode learners and empty
        queues.  ``budget`` overrides the learner's per-pump drain
        budget (None = learner default).  Returns the number of
        prefetches submitted.
        """
        learner = self.learner
        if learner.learn_mode != "deferred" or not learner.learn_queue_depth:
            return 0
        with stage(trace, "learn_drain") as step:
            ready_list = learner.drain_learn_queue(budget=budget)
        step.tag(completed=len(ready_list))
        self.submit_all(ready_list, trace)
        return len(ready_list)

    def _record_response_time(self, site: str, elapsed: float) -> None:
        samples = self._response_samples.get(site, 0)
        current = self.avg_response_time.get(site, 0.0)
        self.avg_response_time[site] = (current * samples + elapsed) / (samples + 1)
        self._response_samples[site] = samples + 1

    def _drain(self) -> None:
        """Pop fresh head entries until the slots fill: O(log S) each."""
        heap = self._site_heap
        while self._active < self.max_concurrent and self._waiting_count:
            entry = heapq.heappop(heap)
            _, head_seq, site, epoch = entry
            fifo = self._site_fifos.get(site)
            # the head check is defensive: a live-epoch entry always
            # names the head
            if (
                epoch != self._site_epoch.get(site, 0)
                or not fifo
                or fifo[0][0] != head_seq
            ):
                self.stale_heap_entries += 1
                if PERF.enabled:
                    PERF.incr("prefetch.stale_heap_entries")
                continue
            _, queued_at, ready = fifo.popleft()
            self._waiting_count -= 1
            if fifo:
                self._push_head(site)
            else:
                del self._site_fifos[site]
            self._start(ready, queued_at)

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, int]:
        return {
            "issued": self.issued,
            "errors": self.errors,
            "prefetch_bytes": self.prefetch_bytes,
            "skipped_policy": self.skipped_policy,
            "skipped_probability": self.skipped_probability,
            "skipped_budget": self.skipped_budget,
            "skipped_depth": self.skipped_depth,
            "skipped_duplicate": self.skipped_duplicate,
            "skipped_condition": self.skipped_condition,
            "skipped_popularity": self.skipped_popularity,
            "skipped_admission": self.skipped_admission,
        }
