"""Robustness: bounded state, concurrent users, fault tolerance."""


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
from repro.experiments.scenario import Scenario, prepare_app
from repro.httpmsg.body import JsonBody
from repro.httpmsg.fieldpath import FieldPath
from repro.httpmsg.message import Request, Response, Transaction
from repro.httpmsg.uri import Uri
from repro.proxy import learning as learning_module
from repro.proxy.learning import DynamicLearner
from repro.netsim.sim import Delay


def unresolvable_analysis():
    """Successor that can never resolve (unknown env tag never appears)."""
    pred = TransactionSignature(
        "P#0",
        RequestTemplate("GET", ValueTemplate([ConstAtom("https://a.com/list")])),
        ResponseTemplate(),
    )
    succ = TransactionSignature(
        "S#0",
        RequestTemplate(
            "GET",
            ValueTemplate([ConstAtom("https://a.com/item")]),
            {
                FieldPath.parse("query.id"): ValueTemplate(
                    [DepAtom("P#0", FieldPath.parse("body.ids[]"))]
                ),
                FieldPath.parse("query.secret"): ValueTemplate(
                    [UnknownAtom("env:config:never_observed")]
                ),
            },
        ),
        ResponseTemplate(),
    )
    edges = [
        DependencyEdge(
            "P#0", FieldPath.parse("body.ids[]"), "S#0", FieldPath.parse("query.id")
        )
    ]
    return AnalysisResult("t", [pred, succ], edges)


def list_transaction(ids):
    return Transaction(
        Request("GET", Uri.parse("https://a.com/list")),
        Response(200, body=JsonBody({"ids": list(ids)})),
    )


def test_pending_queue_bounded(monkeypatch):
    monkeypatch.setattr(learning_module, "MAX_PENDING", 50)
    learner = DynamicLearner(unresolvable_analysis())
    for batch in range(20):
        ids = ["id-{}-{}".format(batch, i) for i in range(10)]
        learner.observe(list_transaction(ids), "u1")
    assert learner.pending_count <= 50


def test_pending_eviction_drops_oldest(monkeypatch):
    monkeypatch.setattr(learning_module, "MAX_PENDING", 5)
    learner = DynamicLearner(unresolvable_analysis())
    learner.observe(list_transaction(["old-{}".format(i) for i in range(5)]), "u1")
    learner.observe(list_transaction(["new-{}".format(i) for i in range(5)]), "u1")
    remaining = {i.dep_values["query.id"] for i in learner._pending}
    assert all(value.startswith("new-") for value in remaining)


def test_verification_reports_unresolved_sites():
    from repro.netsim.transport import OriginMap
    from repro.netsim.link import Link
    from repro.netsim.sim import Simulator
    from repro.proxy.proxy import AccelerationProxy

    analysis = unresolvable_analysis()
    sim = Simulator()

    class ListEndpoint:
        def handle(self, request, user):
            yield Delay(0.01)
            return Response(200, body=JsonBody({"ids": ["a", "b"]}))

    origins = OriginMap()
    origins.register("https://a.com", ListEndpoint(), Link(rtt=0.02))
    proxy = AccelerationProxy(sim, origins, analysis)

    def flow():
        response = yield sim.spawn(
            proxy.handle_request(Request("GET", Uri.parse("https://a.com/list")), "u1")
        )
        return response

    sim.run_process(flow())
    # the successor's env value never resolved: the instances stay pending
    assert proxy.learner.pending_count == 2
    sites = {i.signature.site for i in proxy.learner._pending}
    assert sites == {"S#0"}


def test_many_concurrent_users_stay_isolated():
    prepared = prepare_app("wish")
    scenario = Scenario(
        prepared, proxied=True, enabled_classes=prepared.spec.main_site_classes
    )
    runtimes = [scenario.runtime("user-{:02d}".format(i)) for i in range(8)]

    def one(runtime, index):
        def flow():
            yield scenario.sim.spawn(runtime.launch())
            yield Delay(5.0 + index * 0.3)
            result = yield scenario.sim.spawn(runtime.dispatch("select_item", index))
            return result
        return flow()

    def all_users():
        processes = [
            scenario.sim.spawn(one(runtime, index))
            for index, runtime in enumerate(runtimes)
        ]
        collected = []
        for process in processes:
            collected.append((yield process))
        return collected

    results = scenario.sim.run_process(all_users())
    # every user accelerated with their own (personalized) item
    cids = set()
    for index, result in enumerate(results):
        product = next(
            t for t in result.transactions if t.request.uri.path == "/product/get"
        )
        cids.add((product.request.body.get("cid"), product.request.headers.get("Cookie")))
    assert len(cids) == len(results)  # distinct items/cookies per user
    assert scenario.proxy.served_prefetched >= len(results)


def test_partial_origin_outage_degrades_gracefully():
    prepared = prepare_app("wish")
    scenario = Scenario(
        prepared, proxied=True, enabled_classes=prepared.spec.main_site_classes
    )
    # the image origin goes down; the API origin keeps working
    image_server = scenario.servers["https://img.wish.com"]
    for route in image_server.routes:
        image_server.force_error(route.name, 503)
    runtime = scenario.runtime("u1")

    def flow():
        yield scenario.sim.spawn(runtime.launch())
        yield Delay(6.0)
        result = yield scenario.sim.spawn(runtime.dispatch("select_item", 1))
        return result

    result = scenario.sim.run_process(flow())
    statuses = {
        t.request.uri.origin(): t.response.status for t in result.transactions
    }
    assert statuses["https://api.wish.com"] == 200  # still accelerated
    assert statuses["https://img.wish.com"] == 503  # failure surfaced
    # failed prefetches were never cached
    entries = scenario.proxy.cache.entries_for_user("u1")
    assert entries  # the API origin's prefetches were
    for entry in entries:
        assert entry.response.ok
