"""Wake-index tests: learning a value retries only blocked instances.

The seed rescanned the entire pending list on every observation; the
wake index maps each missing tag/field key to the instances blocked on
it.  These tests pin the targeting (only affected instances retried)
and the unchanged observable behavior (pending_count, dedupe,
oldest-first eviction at MAX_PENDING).
"""

import gc

from repro.analysis.model import (
    AnalysisResult,
    ConstAtom,
    DepAtom,
    DependencyEdge,
    RequestTemplate,
    ResponseTemplate,
    TransactionSignature,
    UnknownAtom,
    ValueTemplate,
)
from repro.httpmsg.body import JsonBody
from repro.httpmsg.fieldpath import FieldPath
from repro.httpmsg.message import Request, Response, Transaction
from repro.httpmsg.uri import Uri
from repro.proxy import learning as learning_module
from repro.proxy.instances import RequestInstance
from repro.proxy.learning import DynamicLearner


def host():
    return UnknownAtom("env:config:api_host")


def successor(site, path_suffix, tag):
    """Successor blocked on a dep value and one env tag."""
    dep = DepAtom("Feed#0", FieldPath.parse("body.items[].id"))
    return TransactionSignature(
        site,
        RequestTemplate(
            method="POST",
            uri=ValueTemplate([host(), ConstAtom(path_suffix)]),
            fields={
                FieldPath.parse("body.cid"): ValueTemplate([dep]),
                FieldPath.parse("body.token"): ValueTemplate([UnknownAtom(tag)]),
            },
            body_kind="form",
        ),
        ResponseTemplate(),
    )


def two_successor_analysis():
    feed = TransactionSignature(
        "Feed#0",
        RequestTemplate(
            method="GET", uri=ValueTemplate([host(), ConstAtom("/feed")])
        ),
        ResponseTemplate(paths={FieldPath.parse("body.items[].id")}),
    )
    alpha = successor("Alpha#0", "/alpha", "env:config:alpha")
    beta = successor("Beta#0", "/beta", "env:config:beta")
    teacher_alpha = TransactionSignature(
        "TeachAlpha#0",
        RequestTemplate(
            method="GET",
            uri=ValueTemplate([host(), ConstAtom("/teach-alpha")]),
            fields={
                FieldPath.parse("query.t"): ValueTemplate(
                    [UnknownAtom("env:config:alpha")]
                )
            },
        ),
        ResponseTemplate(),
    )
    edges = [
        DependencyEdge(
            "Feed#0", FieldPath.parse("body.items[].id"),
            "Alpha#0", FieldPath.parse("body.cid"),
        ),
        DependencyEdge(
            "Feed#0", FieldPath.parse("body.items[].id"),
            "Beta#0", FieldPath.parse("body.cid"),
        ),
    ]
    return AnalysisResult("t", [feed, alpha, beta, teacher_alpha], edges)


def feed_transaction(item_ids=("a1", "b2")):
    return Transaction(
        Request("GET", Uri.parse("https://api.test.com/feed")),
        Response(200, body=JsonBody({"items": [{"id": i} for i in item_ids]})),
    )


def teach_alpha_transaction(value="tok-A"):
    return Transaction(
        Request(
            "GET",
            Uri.parse("https://api.test.com/teach-alpha?t={}".format(value)),
        ),
        Response(200, body=JsonBody({"ok": True})),
    )


def count_try_builds(monkeypatch):
    """Instrument RequestInstance.try_build with a per-site counter."""
    counts = {}
    original = RequestInstance.try_build

    def counting(self, store, preferred_variant=None):
        counts[self.signature.site] = counts.get(self.signature.site, 0) + 1
        return original(self, store, preferred_variant)

    monkeypatch.setattr(RequestInstance, "try_build", counting)
    return counts


# -- targeting ---------------------------------------------------------------
def test_learning_tag_retries_only_waiting_instances(monkeypatch):
    learner = DynamicLearner(two_successor_analysis())
    learner.observe(feed_transaction(), "u1")  # spawns Alpha×2 + Beta×2
    assert learner.pending_count == 4
    counts = count_try_builds(monkeypatch)
    ready = learner.observe(teach_alpha_transaction(), "u1")
    # only the Alpha instances (blocked on env:config:alpha) retried...
    assert counts.get("Alpha#0", 0) == 2
    assert counts.get("Beta#0", 0) == 0
    # ...and they complete, leaving only Beta pending
    assert sorted(r.instance.signature.site for r in ready) == ["Alpha#0", "Alpha#0"]
    assert learner.pending_count == 2
    assert {i.signature.site for i in learner._pending} == {"Beta#0"}


def test_unrelated_observation_retries_nothing(monkeypatch):
    learner = DynamicLearner(two_successor_analysis())
    learner.observe(feed_transaction(), "u1")
    counts = count_try_builds(monkeypatch)
    # same feed again: spawned duplicates are deduped, nothing learned
    # beyond already-known values → no pending retries at all
    learner.observe(feed_transaction(), "u1")
    assert counts.get("Alpha#0", 0) == 0
    assert counts.get("Beta#0", 0) == 0


def test_completed_instances_not_retried_on_later_wakes(monkeypatch):
    learner = DynamicLearner(two_successor_analysis())
    learner.observe(feed_transaction(), "u1")
    learner.observe(teach_alpha_transaction("tok-1"), "u1")
    assert learner.pending_count == 2  # Beta instances remain
    counts = count_try_builds(monkeypatch)
    # alpha changes value again: the completed Alpha instances are gone
    learner.observe(teach_alpha_transaction("tok-2"), "u1")
    assert counts.get("Alpha#0", 0) == 0


def test_per_user_tag_wakes_only_that_users_instances(monkeypatch):
    analysis = two_successor_analysis()
    # make Alpha's missing tag per-user (env:cookie)
    learner = DynamicLearner(analysis)
    learner.observe(feed_transaction(), "u1")
    learner.observe(feed_transaction(), "u2")
    assert learner.pending_count == 8
    counts = count_try_builds(monkeypatch)
    learner.observe(teach_alpha_transaction(), "u1")
    # env:config:alpha is app-level → instances of BOTH users wake
    assert counts.get("Alpha#0", 0) == 4
    assert counts.get("Beta#0", 0) == 0


# -- unchanged observable behavior -------------------------------------------
def test_pending_count_and_dedupe_unchanged():
    learner = DynamicLearner(two_successor_analysis())
    learner.observe(feed_transaction(item_ids=("a1",)), "u1")
    learner.observe(feed_transaction(item_ids=("a1",)), "u1")
    assert learner.pending_count == 2  # Alpha + Beta for a1, deduped


def test_eviction_at_max_pending_drops_oldest_first(monkeypatch):
    monkeypatch.setattr(learning_module, "MAX_PENDING", 6)
    learner = DynamicLearner(two_successor_analysis())
    learner.observe(feed_transaction(item_ids=("o1", "o2", "o3")), "u1")
    assert learner.pending_count == 6
    before = list(learner._pending)  # FIFO order
    learner.observe(feed_transaction(item_ids=("n1",)), "u1")
    assert learner.pending_count == 6
    after = list(learner._pending)
    # exactly the two oldest instances were evicted, newest present
    assert before[0] not in after
    assert before[1] not in after
    assert all(i in after for i in before[2:])
    assert [i.dep_values["body.cid"] for i in after].count("n1") == 2
    # bookkeeping stays consistent
    assert len(learner._pending_keys) == learner.pending_count


def test_evicted_instances_do_not_wake(monkeypatch):
    monkeypatch.setattr(learning_module, "MAX_PENDING", 2)
    learner = DynamicLearner(two_successor_analysis())
    learner.observe(feed_transaction(item_ids=("x1", "x2", "x3")), "u1")
    assert learner.pending_count == 2
    counts = count_try_builds(monkeypatch)
    ready = learner.observe(teach_alpha_transaction(), "u1")
    # at most the live Alpha instances retried; evicted ones never
    assert counts.get("Alpha#0", 0) <= 2
    assert all(r.instance.signature.site == "Alpha#0" for r in ready)
    assert len(learner._pending_keys) == learner.pending_count


def test_preferred_variant_change_wakes_instances():
    """A newly observed field-set variant can complete an instance even
    when no store value changed: the (user, site) variant wake key."""
    from repro.httpmsg.body import FormBody

    feed = TransactionSignature(
        "Feed#0",
        RequestTemplate(
            method="GET", uri=ValueTemplate([host(), ConstAtom("/feed")])
        ),
        ResponseTemplate(paths={FieldPath.parse("body.items[].id")}),
    )
    dep = DepAtom("Feed#0", FieldPath.parse("body.items[].id"))
    # body.ref depends on a predecessor that never runs, so the larger
    # variant can never be built; the smaller one always can
    ghost = DepAtom("Ghost#0", FieldPath.parse("body.token"))
    succ = TransactionSignature(
        "Succ#0",
        RequestTemplate(
            method="POST",
            uri=ValueTemplate([host(), ConstAtom("/succ")]),
            fields={
                FieldPath.parse("body.cid"): ValueTemplate([dep]),
                FieldPath.parse("body.ref"): ValueTemplate([ghost]),
            },
            body_kind="form",
        ),
        ResponseTemplate(),
        variants=[
            frozenset({"body.cid", "body.ref"}),
            frozenset({"body.cid"}),
        ],
    )
    edges = [
        DependencyEdge(
            "Feed#0", FieldPath.parse("body.items[].id"),
            "Succ#0", FieldPath.parse("body.cid"),
        )
    ]
    learner = DynamicLearner(AnalysisResult("t", [feed, succ], edges))

    def observed_succ(fields):
        return Transaction(
            Request(
                "POST",
                Uri.parse("https://api.test.com/succ"),
                body=FormBody(list(fields)),
            ),
            Response(200, body=JsonBody({"ok": True})),
        )

    # the app is first seen sending the larger variant → preferred
    learner.observe(observed_succ([("cid", "zz"), ("ref", "r0")]), "u1")
    # the spawned instance honors the preferred (unbuildable) variant
    learner.observe(feed_transaction(item_ids=("a1",)), "u1")
    assert learner.pending_count == 1
    version_before = learner.store.version
    # same field values, smaller variant: no store change, only the
    # preferred variant flips — the variant wake must retry the instance
    ready = learner.observe(observed_succ([("cid", "zz")]), "u1")
    assert learner.store.version == version_before
    assert [r.instance.signature.site for r in ready] == ["Succ#0"]
    assert ready[0].request.body.get("cid") == "a1"
    assert ready[0].request.body.get("ref") is None
    assert learner.pending_count == 0


# -- retention: the wake index holds live instances only ---------------------
def live_instances_of(user):
    """Ids of the instances for ``user`` that anything still keeps alive."""
    gc.collect()
    return {
        id(obj)
        for obj in gc.get_objects()
        if isinstance(obj, RequestInstance) and obj.user == user
    }


def test_completed_instances_leave_the_wake_index():
    learner = DynamicLearner(two_successor_analysis())
    learner.observe(feed_transaction(), "done-user")
    ready = learner.observe(teach_alpha_transaction(), "done-user")
    assert len(ready) == 2
    del ready  # the prefetcher is done with the completed Alpha instances
    assert live_instances_of("done-user") == set(map(id, learner._pending))
    # learn Beta's tag too: every instance completes
    learner.store.learn_tag("done-user", "env:config:beta", "tok-B")
    ready = learner.observe(feed_transaction(item_ids=()), "done-user")
    assert len(ready) == 2
    assert learner.pending_count == 0
    assert learner._wake_index == {}
    del ready
    assert live_instances_of("done-user") == set()


def test_instances_dropped_at_max_pending_leave_the_wake_index(monkeypatch):
    monkeypatch.setattr(learning_module, "MAX_PENDING", 2)
    learner = DynamicLearner(two_successor_analysis())
    learner.observe(feed_transaction(item_ids=("x1", "x2", "x3")), "evict-user")
    assert learner.pending_count == 2
    # the four dropped instances are garbage, not pinned by a bucket
    assert live_instances_of("evict-user") == set(map(id, learner._pending))
