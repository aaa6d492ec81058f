"""Tests for the prefetch-efficacy machinery: hit-aware admission,
the wasted-prefetch counter, adaptive per-user budgets, and the
history-based baseline strategy.
"""

import itertools
import random

import pytest

from repro.httpmsg.body import JsonBody
from repro.httpmsg.message import Request, Response
from repro.httpmsg.uri import Uri
from repro.netsim.link import Link
from repro.netsim.sim import Delay, Simulator
from repro.netsim.transport import OriginMap
from repro.proxy.cache import PrefetchCache
from repro.proxy.config import DEFAULT_ADMISSION_THRESHOLD, ProxyConfig
from repro.proxy.history import HistoryPrefetcher
from repro.proxy.prefetcher import Prefetcher
from repro.server.origin import OriginServer

from tests.oracles import FlatPrefetchCache

SITE = "Feed.load#1"


def make_request(path):
    return Request("GET", Uri.parse("https://eff.example" + path))


def make_response(payload):
    return Response(200, body=JsonBody(payload))


# ----------------------------------------------------------------------
# hit-aware admission (§4.4 threshold on the yield of *resolved*
# prefetches: served ÷ (served + wasted))
# ----------------------------------------------------------------------
OTHER = "Feed.load#2"
_paths = itertools.count()


def build_prefetcher(threshold=0.3, min_issued=5, explore=0.0, cache=None):
    sim = Simulator()
    config = ProxyConfig(
        admission_threshold=threshold,
        admission_min_issued=min_issued,
        admission_explore=explore,
    )
    cache = cache if cache is not None else PrefetchCache()
    prefetcher = Prefetcher(sim, OriginMap(), cache, config, learner=None)
    return prefetcher, cache


def store(cache, count, site=SITE, user="u0", ttl=60.0):
    """Store ``count`` fresh prefetched entries; return their requests."""
    requests = []
    for _ in range(count):
        request = make_request("/e{}".format(next(_paths)))
        cache.put(user, request, make_response({"site": site}), site, now=0.0, ttl=ttl)
        requests.append(request)
    return requests


def serve(cache, count, site=SITE, hits_each=1):
    """Resolve ``count`` entries of ``site`` as served, the way the
    proxy does: look the entry up, mark it served, record the hit."""
    for _ in range(count):
        [request] = store(cache, 1, site, user="served")
        for _ in range(hits_each):
            cache.mark_served(cache.get("served", request, 0.5))
            cache.record_hit(site)


def waste(cache, count, site=SITE):
    """Resolve ``count`` entries of ``site`` as wasted: they expire unserved."""
    store(cache, count, site, user="wasted", ttl=1.0)
    cache.purge_expired(10.0)


def test_admission_allows_during_warmup():
    prefetcher, cache = build_prefetcher(min_issued=5)
    waste(cache, 4)  # below warmup: 4 resolved, none served
    assert prefetcher._admitted(SITE)


def test_admission_blocks_cold_signatures():
    prefetcher, cache = build_prefetcher(threshold=0.3, explore=0.0)
    serve(cache, 1)
    waste(cache, 9)  # resolved yield 0.1 < 0.3
    assert not prefetcher._admitted(SITE)


def test_admission_passes_hot_signatures():
    prefetcher, cache = build_prefetcher(threshold=0.3)
    serve(cache, 4)
    waste(cache, 6)  # 0.4 >= 0.3
    assert prefetcher._admitted(SITE)


def test_admission_explores_blocked_signatures():
    prefetcher, cache = build_prefetcher(threshold=0.3, explore=0.5)
    prefetcher.rng = random.Random(7)
    waste(cache, 100)
    admitted = sum(prefetcher._admitted(SITE) for _ in range(400))
    # the explore coin re-admits roughly its configured fraction
    assert 120 < admitted < 280


def test_admission_per_signature_override_beats_global():
    prefetcher, cache = build_prefetcher(threshold=0.9, explore=0.0)
    prefetcher.config.policy(SITE).min_hit_probability = 0.05
    serve(cache, 1)
    waste(cache, 9)  # 0.1 >= the per-policy 0.05, < the global 0.9
    assert prefetcher._admitted(SITE)


def test_admission_disabled_when_no_threshold():
    for threshold in (None, 0.0):
        prefetcher, cache = build_prefetcher(threshold=threshold)
        waste(cache, 1000)
        assert prefetcher._admitted(SITE)


def test_admission_is_on_by_default():
    assert ProxyConfig().admission_threshold == DEFAULT_ADMISSION_THRESHOLD > 0.0
    assert ProxyConfig.from_json("{}").admission_threshold == (
        DEFAULT_ADMISSION_THRESHOLD
    )


def test_admission_admits_issued_but_unresolved_prefetches():
    # 100 issued, no hit yet: judged on issued count this read 0.0 and
    # blocked; the entries are still in the cache, so nothing resolved
    prefetcher, cache = build_prefetcher(threshold=0.3, explore=0.0)
    prefetcher.issued_by_site[SITE] = 100
    store(cache, 100)
    assert prefetcher._admitted(SITE)


def test_admission_counts_an_entry_hit_several_times_once():
    prefetcher, cache = build_prefetcher(threshold=0.3, explore=0.0)
    serve(cache, 1, hits_each=5)
    waste(cache, 4)
    assert cache.hits[SITE] == 5
    assert cache.served_by_site[SITE] == 1
    # 1 served of 5 resolved is 0.2 < 0.3 (5 hits over 9 would pass)
    assert not prefetcher._admitted(SITE)


def test_admission_counts_an_evicted_unserved_entry_against_its_site():
    cache = PrefetchCache(max_entries_per_user=1)
    prefetcher, _ = build_prefetcher(
        threshold=0.3, min_issued=4, explore=0.0, cache=cache
    )
    serve(cache, 4, site=OTHER)
    store(cache, 5)  # each put evicts the user's previous, unserved entry
    assert cache.wasted_by_site == {SITE: 4}
    assert not prefetcher._admitted(SITE)
    assert prefetcher._admitted(OTHER)


# ----------------------------------------------------------------------
# wasted-prefetch accounting
# ----------------------------------------------------------------------
def test_lru_eviction_of_unserved_entry_counts_as_wasted():
    cache = PrefetchCache(max_entries_per_user=1)
    a, b = make_request("/a"), make_request("/b")
    cache.put("u0", a, make_response({"k": 1}), SITE, now=0.0, ttl=60.0)
    cache.put("u0", b, make_response({"k": 2}), SITE, now=1.0, ttl=60.0)
    assert cache.wasted == 1
    assert cache.wasted_by_site[SITE] == 1


def test_served_entry_is_not_wasted():
    cache = PrefetchCache(max_entries_per_user=1)
    a, b = make_request("/a"), make_request("/b")
    cache.put("u0", a, make_response({"k": 1}), SITE, now=0.0, ttl=60.0)
    entry = cache.get("u0", a, 0.5)
    entry.served = True
    cache.put("u0", b, make_response({"k": 2}), SITE, now=1.0, ttl=60.0)
    assert cache.wasted == 0


def test_expired_unserved_entry_counts_as_wasted():
    cache = PrefetchCache()
    cache.put(
        "u0", make_request("/a"), make_response({"k": 1}), SITE,
        now=0.0, ttl=5.0,
    )
    cache.purge_expired(10.0)
    assert cache.wasted == 1


CACHE_FACTORIES = {
    "sharded": PrefetchCache,
    "bounded": lambda: PrefetchCache(max_entries_per_user=4),
    "flat": FlatPrefetchCache,
}


@pytest.mark.parametrize("kind", sorted(CACHE_FACTORIES))
def test_overwritten_unserved_entry_counts_as_wasted(kind):
    # the prefetcher re-fetches once contains_fresh turns false, while
    # the expired entry may still be waiting for its purge: the put
    # replaces it, and it must not drop out of the waste count
    cache = CACHE_FACTORIES[kind]()
    a = make_request("/a")
    cache.put("u0", a, make_response({"k": 1}), SITE, now=0.0, ttl=1.0)
    cache.put("u0", a, make_response({"k": 2}), SITE, now=2.0, ttl=1.0)
    cache.purge_expired(10.0)
    assert cache.stored == 2
    assert cache.wasted == 2
    assert cache.wasted_by_site[SITE] == 2


@pytest.mark.parametrize("kind", sorted(CACHE_FACTORIES))
def test_overwritten_served_entry_is_not_wasted(kind):
    cache = CACHE_FACTORIES[kind]()
    a = make_request("/a")
    cache.put("u0", a, make_response({"k": 1}), SITE, now=0.0, ttl=60.0)
    cache.get("u0", a, 0.5).served = True
    cache.put("u0", a, make_response({"k": 2}), SITE, now=1.0, ttl=60.0)
    assert cache.wasted == 0
    cache.purge_expired(100.0)
    assert cache.wasted == 1


def test_naive_cache_counts_wasted_identically():
    indexed = PrefetchCache()
    naive = FlatPrefetchCache()
    for cache in (indexed, naive):
        cache.put(
            "u0", make_request("/a"), make_response({"k": 1}), SITE,
            now=0.0, ttl=5.0,
        )
        cache.purge_expired(10.0)
    assert naive.wasted == indexed.wasted == 1


# ----------------------------------------------------------------------
# adaptive per-user budgets
# ----------------------------------------------------------------------
def test_adaptive_requires_total_budget():
    with pytest.raises(ValueError):
        PrefetchCache(adaptive=True)


def test_hit_mass_rotates_by_window():
    cache = PrefetchCache(
        max_entries_total=16, adaptive=True, hit_mass_window=10.0
    )
    cache._note_user_hit("u0", 1.0)
    cache._note_user_hit("u0", 2.0)
    assert cache.hit_mass("u0") == 2
    # one window later the mass survives (cur + prev)...
    cache._note_user_hit("u0", 11.0)
    assert cache.hit_mass("u0") == 3
    # ...but two quiet windows later it is gone
    cache._note_user_hit("u1", 35.0)
    assert cache.hit_mass("u0") == 0


def test_active_users_get_larger_allowance():
    cache = PrefetchCache(
        max_entries_total=40, adaptive=True, min_entries_per_user=2
    )
    for user in ("u0", "u1"):
        cache.put(
            user, make_request("/seed-" + user), make_response({"u": user}),
            SITE, now=0.0, ttl=600.0,
        )
    for _ in range(8):
        cache._note_user_hit("u0", 1.0)
    assert cache._allowance("u0") > cache._allowance("u1")
    assert cache._allowance("u1") >= 2  # the floor


def test_adaptive_budget_evicts_cold_users_first():
    cache = PrefetchCache(
        max_entries_total=10, adaptive=True, min_entries_per_user=2
    )
    # u0 earns hit mass; u1 is cold
    for index in range(5):
        cache.put(
            "u0", make_request("/hot-{}".format(index)),
            make_response({"i": index}), SITE, now=0.0, ttl=600.0,
        )
        cache._note_user_hit("u0", 0.5)
    for index in range(8):
        cache.put(
            "u1", make_request("/cold-{}".format(index)),
            make_response({"i": index}), SITE, now=1.0, ttl=600.0,
        )
    hot = len(cache.entries_for_user("u0"))
    cold = len(cache.entries_for_user("u1"))
    assert hot + cold <= 10
    assert cold <= cache._allowance("u1")
    assert hot >= cache._allowance("u1")


def test_total_budget_is_enforced_without_adaptive():
    cache = PrefetchCache(max_entries_total=4)
    for index in range(10):
        cache.put(
            "u{}".format(index % 3), make_request("/e{}".format(index)),
            make_response({"i": index}), SITE, now=float(index), ttl=600.0,
        )
    assert len(cache) <= 4
    assert cache.lru_evictions >= 6


# ----------------------------------------------------------------------
# history-based baseline
# ----------------------------------------------------------------------
def build_history():
    sim = Simulator()
    server = OriginServer(sim, "https://eff.example")

    def echo(server, request, user):
        return Response(200, body=JsonBody({"path": request.uri.path}))

    server.route("GET", "/a", echo, name="a")
    server.route("GET", "/b", echo, name="b")
    origins = OriginMap()
    origins.register("https://eff.example", server, Link(rtt=0.02))
    cache = PrefetchCache()
    history = HistoryPrefetcher(sim, origins, cache, ttl=600.0)
    return sim, cache, history


def test_history_prefetches_most_frequent_successor():
    sim, cache, history = build_history()
    a, b = make_request("/a"), make_request("/b")

    def flow():
        # first cycle teaches the A -> B transition
        history.observe("u0", a, sim.now)
        history.observe("u0", b, sim.now)
        # second visit to A predicts B
        started = history.observe("u0", a, sim.now)
        assert started == 1
        yield Delay(1.0)
        return None

    sim.run_process(flow())
    assert history.issued == 1
    assert cache.get("u0", b, sim.now) is not None


def test_history_skips_fresh_duplicates():
    sim, cache, history = build_history()
    a, b = make_request("/a"), make_request("/b")

    def flow():
        history.observe("u0", a, sim.now)
        history.observe("u0", b, sim.now)
        history.observe("u0", a, sim.now)
        yield Delay(1.0)
        history.observe("u0", b, sim.now)
        started = history.observe("u0", a, sim.now)
        assert started == 0
        yield Delay(1.0)
        return None

    sim.run_process(flow())
    assert history.skipped_duplicate == 1
    # B was prefetched once (after the second A); the revisit of B also
    # predicted A from the learned B -> A transition
    assert history.issued == 2


def test_history_is_per_user():
    sim, cache, history = build_history()
    a, b = make_request("/a"), make_request("/b")

    def flow():
        history.observe("u0", a, sim.now)
        history.observe("u0", b, sim.now)
        # u1 visits A for the first time: no transition of their own
        started = history.observe("u1", a, sim.now)
        assert started == 0
        yield Delay(1.0)
        return None

    sim.run_process(flow())
    assert history.issued == 0
    assert cache.get("u1", b, sim.now) is None


# ----------------------------------------------------------------------
# §5 queue order at scale: a backed-up pipe drains by yield
# ----------------------------------------------------------------------
def test_backed_up_wish_pipe_serves_the_signatures_clients_use():
    from repro.experiments.scale import run_scale

    # a warm 10-user Wish cell backs the 64-slot pipe up; ranked by
    # response time the rarely used product-detail prefetches drained
    # first and the feed's waited until its users had moved on (0.45)
    row = run_scale(
        10, 20.0, apps=("wish",), rate_per_user=1.0, seed=3, warm_start=True
    )
    assert row["hit_rate"] >= 0.8

    def mean_wait_ms(site):
        cell = row["prefetch_by_signature"][site]
        return cell["queue_wait_ms"] / cell["issued"]

    # the feed, whose prefetches get used, waits less than product
    # details, whose prefetches do not
    assert mean_wait_ms("FeedActivity.loadFeed#1") < mean_wait_ms(
        "DetailActivity.onStart#0"
    )
