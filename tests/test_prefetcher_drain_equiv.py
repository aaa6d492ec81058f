"""Lazy epoch-stamped drain vs the seed's rebuild drain: same order.

The §5 scheduler's contract is "drain in priority order as of *now*,
FIFO within a site".  The seed re-sorted the whole waiting queue per
drain (O(W)); the lazy drain keeps per-site FIFOs plus a head-entry
heap invalidated by epoch stamps (amortized O(log W)).  These tests
drive both implementations with identical recorded workloads — queue
buildups, mid-flight yield moves (hits raise a site's priority,
completed issues lower it), the priority ablation toggle — and assert
the origin observed the *identical* issue order.
"""

import random

import pytest

from repro.analysis.model import AnalysisResult
from repro.netsim.link import Link
from repro.netsim.sim import Simulator
from repro.netsim.transport import OriginMap
from repro.proxy.cache import PrefetchCache
from repro.proxy.config import ProxyConfig
from repro.proxy.learning import DynamicLearner
from repro.proxy.prefetcher import Prefetcher

from tests.oracles import RebuildDrainPrefetcher
from tests.test_proxy_prefetcher import ORIGIN, SlowEndpoint, issue, ready_for


def make_prefetcher(lazy_drain, max_concurrent=1):
    """A production (lazy) prefetcher, or the rebuild-drain oracle."""
    sim = Simulator()
    endpoint = SlowEndpoint()
    origins = OriginMap()
    origins.register(ORIGIN, endpoint, Link(rtt=0.02))
    cache = PrefetchCache()
    learner = DynamicLearner(AnalysisResult("t", [], []))
    factory = Prefetcher if lazy_drain else RebuildDrainPrefetcher
    prefetcher = factory(
        sim, origins, cache, ProxyConfig(), learner, max_concurrent=max_concurrent
    )
    return sim, endpoint, cache, prefetcher


def replay(workload, lazy_drain, max_concurrent=1):
    """Apply one recorded op sequence; return the origin's issue order."""
    sim, endpoint, cache, prefetcher = make_prefetcher(lazy_drain, max_concurrent)
    for op in workload:
        kind = op[0]
        if kind == "submit":
            _, site, path, user = op
            prefetcher.submit(ready_for(site, path, user=user))
        elif kind == "priority":
            # move a site's yield: +n records n hits, -n records n
            # completed issues exactly as ``_fetch`` does
            _, site, delta = op
            for _ in range(delta):
                cache.record_hit(site)
            if delta < 0:
                issued = prefetcher.issued_by_site.get(site, 0) - delta
                prefetcher.issued_by_site[site] = issued
                prefetcher._bump_epoch(site)
        elif kind == "hit":
            cache.record_hit(op[1])
        elif kind == "miss":
            cache.record_miss(op[1])
        elif kind == "toggle":
            prefetcher.priority_enabled = op[1]
        elif kind == "run":
            sim.run(until=sim.now + op[1])
    sim.run()
    return endpoint.order, prefetcher


def random_workload(seed, length=120):
    rng = random.Random(seed)
    sites = ["s{}#0".format(i) for i in range(6)]
    ops = []
    serial = 0
    for _ in range(length):
        roll = rng.random()
        if roll < 0.5:
            # unique paths so the duplicate gate never hides ordering
            ops.append(
                (
                    "submit",
                    rng.choice(sites),
                    "/p{}".format(serial),
                    "u{}".format(rng.randrange(3)),
                )
            )
            serial += 1
        elif roll < 0.7:
            ops.append(("priority", rng.choice(sites), rng.choice([-3, -1, 1, 2, 4])))
        elif roll < 0.8:
            ops.append((rng.choice(["hit", "miss"]), rng.choice(sites)))
        elif roll < 0.88:
            ops.append(("toggle", rng.random() < 0.5))
        else:
            ops.append(("run", rng.random() * 0.4))
    return ops


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_lazy_drain_order_matches_rebuild_oracle(seed):
    workload = random_workload(seed)
    lazy_order, lazy = replay(workload, lazy_drain=True)
    rebuild_order, rebuild = replay(workload, lazy_drain=False)
    assert lazy_order == rebuild_order
    assert lazy.issued == rebuild.issued
    assert lazy.queue_wait_by_site == rebuild.queue_wait_by_site


def test_lazy_drain_order_matches_with_concurrency():
    workload = random_workload(97, length=200)
    lazy_order, _ = replay(workload, lazy_drain=True, max_concurrent=4)
    rebuild_order, _ = replay(workload, lazy_drain=False, max_concurrent=4)
    assert lazy_order == rebuild_order


def test_priority_rise_while_queued_reorders_lazily():
    # a site whose priority RISES after enqueue must jump the queue —
    # the case plain re-push-on-pop lazy invalidation gets wrong
    sim, endpoint, cache, prefetcher = make_prefetcher(lazy_drain=True)
    issue(sim, prefetcher, "b#0")
    endpoint.order.clear()
    prefetcher.submit(ready_for("hold#0", "/hold"))
    prefetcher.submit(ready_for("a#0", "/a"))
    prefetcher.submit(ready_for("b#0", "/b"))
    cache.record_hit("b#0")
    sim.run()
    assert endpoint.order == ["/hold", "/b", "/a"]
    # b's outdated (pre-rise) head entry was never popped: it is the
    # leftover the epoch stamp guards against
    assert len(prefetcher._site_heap) > 0
    assert all(
        epoch != prefetcher._site_epoch.get(site, 0)
        for _, _, site, epoch in prefetcher._site_heap
    )


def test_priority_drop_while_queued_discards_stale_head():
    # a site whose priority DROPS keeps its old (higher) stamp at the
    # heap top; the pop must recognize it as stale and fall through to
    # the demoted fresh entry
    sim, endpoint, cache, prefetcher = make_prefetcher(lazy_drain=True)
    issue(sim, prefetcher, "a#0")
    cache.record_hit("a#0")  # yield 1/1
    issue(sim, prefetcher, "c#0", 4)
    for _ in range(3):
        cache.record_hit("c#0")  # yield 3/4
    endpoint.order.clear()
    # a's own in-flight fetch holds the slot; its completion demotes a
    # to yield 1/2, below c
    prefetcher.submit(ready_for("a#0", "/hold"))
    prefetcher.submit(ready_for("a#0", "/a"))
    prefetcher.submit(ready_for("c#0", "/c"))
    sim.run()
    assert endpoint.order == ["/hold", "/c", "/a"]
    assert prefetcher.stale_heap_entries > 0


def test_hit_rate_update_bumps_epoch():
    # hits move the yield and bump the epoch; misses do not enter the
    # yield, so they leave the queued head entry alone
    sim, endpoint, cache, prefetcher = make_prefetcher(lazy_drain=True)
    prefetcher.submit(ready_for("hold#0", "/hold"))
    prefetcher.submit(ready_for("a#0", "/a"))
    epoch_before = prefetcher._site_epoch.get("a#0", 0)
    cache.record_miss("a#0")
    assert prefetcher._site_epoch.get("a#0", 0) == epoch_before
    cache.record_hit("a#0")
    assert prefetcher._site_epoch["a#0"] == epoch_before + 1
    sim.run()
    assert endpoint.order == ["/hold", "/a"]


def test_waiting_count_tracks_queue_in_both_modes():
    for lazy in (True, False):
        sim, endpoint, cache, prefetcher = make_prefetcher(lazy_drain=lazy)
        prefetcher.submit(ready_for("hold#0", "/hold"))
        for i in range(3):
            prefetcher.submit(ready_for("q#0", "/q{}".format(i)))
        assert prefetcher.waiting == 3
        sim.run()
        assert prefetcher.waiting == 0


def test_sample_request_copied_once_per_site():
    # the satellite fix: sample_requests.setdefault(site, req.copy())
    # used to pay a full request copy on *every* fetch
    from repro.httpmsg.message import Request

    copies = {"n": 0}
    original_copy = Request.copy

    def counting_copy(self):
        copies["n"] += 1
        return original_copy(self)

    sim, endpoint, cache, prefetcher = make_prefetcher(lazy_drain=True)
    Request.copy = counting_copy
    try:
        prefetcher.submit(ready_for("a#0", "/a1"))
        sim.run()
        first_fetch = copies["n"]
        prefetcher.submit(ready_for("a#0", "/a2"))
        sim.run()
        second_fetch = copies["n"] - first_fetch
    finally:
        Request.copy = original_copy
    # the second fetch for a known site skips the sample copy
    assert second_fetch == first_fetch - 1
    assert "a#0" in prefetcher.sample_requests
