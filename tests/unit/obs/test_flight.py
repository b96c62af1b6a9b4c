"""The flight recorder: tail retention, reservoir sampling, lookup."""

import pytest

from repro.obs.flight import FlightRecorder, render_trace, trace_dict
from repro.obs.record import QueryRecord
from repro.obs.trace import Tracer


def _record(index, ok=True, error_code="", slow=False, violations=0, tenant="t"):
    assert ok == (not error_code)
    return QueryRecord(
        trace_id="trace%04d" % index,
        tenant=tenant,
        policy="nurse",
        query="//a",
        error_code=error_code,
        latency_seconds=0.01,
        slow=slow,
        canary_violations=violations,
    )


class TestTraceRecord:
    """The per-trace entries: a QueryRecord's status decides retention,
    and trace_dict renders it for ``GET /debug/traces``."""

    def test_status_classification(self):
        assert _record(1).status == "ok"
        assert _record(2, slow=True).status == "slow"
        assert _record(3, ok=False, error_code="E_BUDGET").status == "error"
        assert _record(4, ok=False, error_code="E_LABEL_DENIED").status == "denied"
        assert _record(5, ok=False, error_code="E_SECURITY").status == "denied"
        assert _record(6, violations=2).status == "canary-violation"

    def test_interesting_is_the_tail_class(self):
        recorder = FlightRecorder(capacity=1, tail_capacity=8)
        recorder.record(_record(1))
        recorder.record(_record(2, slow=True))
        recorder.record(_record(3, ok=False, error_code="E_BUDGET"))
        recorder.record(_record(4, violations=1))
        stats = recorder.stats()
        assert (stats["ok_seen"], stats["tail"]) == (1, 3)

    def test_trace_dict_assigns_preorder_span_ids(self):
        tracer = Tracer()
        with tracer.span("request") as root:
            with tracer.span("queue_wait"):
                pass
            with tracer.span("query"):
                with tracer.span("evaluate"):
                    pass
        spans = trace_dict(QueryRecord(trace_id="t1", span=root))["spans"]
        assert spans["name"] == "request"
        assert spans["span_id"] == "0001"
        assert spans["parent_span_id"] == ""
        children = spans["children"]
        assert [c["name"] for c in children] == ["queue_wait", "query"]
        assert [c["span_id"] for c in children] == ["0002", "0003"]
        assert all(c["parent_span_id"] == "0001" for c in children)
        evaluate = children[1]["children"][0]
        assert (evaluate["name"], evaluate["parent_span_id"]) == (
            "evaluate",
            "0003",
        )

    def test_canary_violations_are_tail_retained(self):
        recorder = FlightRecorder(capacity=1, tail_capacity=1)
        record = QueryRecord(trace_id="t1", canary_violations=3)
        assert recorder.record(record)
        assert recorder.stats()["tail"] == 1
        assert trace_dict(record)["status"] == "canary-violation"

    def test_to_dict_is_json_safe(self):
        import json

        tracer = Tracer()
        with tracer.span("request", tenant="t") as root:
            pass
        record = QueryRecord(trace_id="abc", tenant="t", span=root)
        payload = json.loads(json.dumps(trace_dict(record)))
        assert payload["trace_id"] == "abc"
        assert set(payload) == {
            "trace_id",
            "request_id",
            "tenant",
            "policy",
            "query",
            "document",
            "status",
            "ok",
            "error_code",
            "latency_seconds",
            "slow",
            "canary_violations",
            "fingerprint",
            "recorded_at",
            "spans",
        }


class TestFlightRecorder:
    def test_interesting_traces_always_retained_until_capacity(self):
        recorder = FlightRecorder(capacity=2, tail_capacity=100)
        for index in range(50):
            assert recorder.record(
                _record(index, ok=False, error_code="E_BUDGET")
            )
        stats = recorder.stats()
        assert stats["tail"] == 50
        assert stats["tail_evicted"] == 0
        for index in range(50):
            assert recorder.get("trace%04d" % index) is not None

    def test_tail_eviction_is_fifo_and_counted(self):
        recorder = FlightRecorder(capacity=2, tail_capacity=3)
        for index in range(5):
            recorder.record(_record(index, slow=True))
        stats = recorder.stats()
        assert stats["tail"] == 3
        assert stats["tail_evicted"] == 2
        assert recorder.get("trace0000") is None
        assert recorder.get("trace0001") is None
        assert recorder.get("trace0004") is not None

    def test_ok_traces_reservoir_sampled_and_bounded(self):
        recorder = FlightRecorder(capacity=8, tail_capacity=8, seed=0)
        for index in range(1000):
            recorder.record(_record(index))
        stats = recorder.stats()
        assert stats["ok_sampled"] == 8
        assert stats["ok_seen"] == 1000
        assert stats["ok_replaced"] + stats["ok_dropped"] == 1000 - 8
        assert len(recorder) == 8

    def test_sampling_is_deterministic_under_seed(self):
        def run(seed):
            recorder = FlightRecorder(capacity=4, tail_capacity=4, seed=seed)
            for index in range(200):
                recorder.record(_record(index))
            return sorted(r.trace_id for r in recorder.traces())

        assert run(7) == run(7)
        assert run(7) != run(8)

    def test_traces_newest_first_with_filters(self):
        recorder = FlightRecorder(capacity=16, tail_capacity=16)
        recorder.record(_record(0, tenant="a"))
        recorder.record(_record(1, tenant="b", slow=True))
        recorder.record(_record(2, tenant="a", ok=False, error_code="E_SECURITY"))
        ids = [r.trace_id for r in recorder.traces()]
        assert ids == ["trace0002", "trace0001", "trace0000"]
        assert [r.trace_id for r in recorder.traces(tenant="a")] == [
            "trace0002",
            "trace0000",
        ]
        assert [r.trace_id for r in recorder.traces(status="slow")] == [
            "trace0001"
        ]
        assert [r.trace_id for r in recorder.traces(n=1)] == ["trace0002"]

    def test_to_dict_payload_shape(self):
        recorder = FlightRecorder()
        recorder.record(_record(0))
        payload = recorder.to_dict()
        assert set(payload) == {"stats", "traces"}
        assert payload["stats"]["recorded"] == 1
        assert payload["traces"][0]["trace_id"] == "trace0000"

    def test_rejects_nonpositive_capacities(self):
        with pytest.raises(ValueError):
            FlightRecorder(capacity=0)
        with pytest.raises(ValueError):
            FlightRecorder(tail_capacity=0)


def test_render_trace_includes_header_and_span_tree():
    tracer = Tracer()
    with tracer.span("request") as root:
        with tracer.span("query", policy="nurse"):
            pass
    record = QueryRecord(
        trace_id="abcd" * 8, tenant="nurse", query="//a", slow=True, span=root
    )
    text = render_trace(trace_dict(record))
    lines = text.splitlines()
    assert "abcdabcdabcdabcd" in lines[0]
    assert "slow" in lines[0]
    assert any("request [0001]" in line for line in lines)
    assert any("query [0002]" in line and "policy=nurse" in line for line in lines)
