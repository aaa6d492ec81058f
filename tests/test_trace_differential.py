"""Trace-record differential: instrumentation changes must not move spans.

``trace_records.json`` holds two small traced ``run_scale`` cells (the
deferred-learn default and an inline-learn cell) as recorded before the
serving path's timers and spans were folded into one ``stage()`` call:
every exported record with the host-dependent ``wall_us`` dropped,
plus each ``stage_latency_us`` key with its count.  A rewrite of how a
step is measured must reproduce them exactly: same records, same span
order, same tags, same simulated durations, same stage counts.

Regenerate only for a deliberate behaviour change, with
``PYTHONPATH=src python tests/test_trace_differential.py``.
"""

import json
import os

FIXTURE = os.path.join(os.path.dirname(__file__), "trace_records.json")

#: (name, run_scale keyword arguments) of every recorded cell
CELLS = (
    ("deferred", dict(users=2, duration=4.0, rate_per_user=2.0, seed=4)),
    (
        "inline",
        dict(users=2, duration=3.0, rate_per_user=2.0, seed=3, learn_mode="inline"),
    ),
)


def _record_cell(kwargs):
    from repro.experiments.scale import run_scale
    from repro.metrics.trace import TRACER

    row = run_scale(trace_sample=1.0, **kwargs)
    records = TRACER.records()
    for record in records:
        for span in record["spans"]:
            span.pop("wall_us")
    return {
        "records": records,
        "stage_counts": {
            stage: cell["count"] for stage, cell in row["stage_latency_us"].items()
        },
    }


def _normalised(payload):
    # a JSON round trip, so tuples and lists compare alike
    return json.loads(json.dumps(payload, sort_keys=True))


def test_trace_records_match_recorded_cells():
    with open(FIXTURE) as handle:
        expected = json.load(handle)
    assert sorted(expected) == sorted(name for name, _ in CELLS)
    for name, kwargs in CELLS:
        got = _normalised(_record_cell(kwargs))
        want = expected[name]
        assert got["stage_counts"] == want["stage_counts"], name
        assert len(got["records"]) == len(want["records"]), name
        for index, (mine, theirs) in enumerate(zip(got["records"], want["records"])):
            assert mine == theirs, "{} record {}".format(name, index)


if __name__ == "__main__":
    payload = {name: _record_cell(kwargs) for name, kwargs in CELLS}
    with open(FIXTURE, "w") as handle:
        json.dump(payload, handle, sort_keys=True, separators=(",", ":"))
        handle.write("\n")
