"""Event schema round-trips, bounded-sink semantics, and pipeline
isolation (a failing sink must never propagate)."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.events import (
    CallbackSink,
    CanaryEvent,
    DenialEvent,
    ErrorEvent,
    EventPipeline,
    EVENT_TYPES,
    JsonlFileSink,
    PolicyEvent,
    QueryEvent,
    RingBufferSink,
    event_from_dict,
    parse_jsonl,
    read_jsonl,
)


def make_query_event(index=0, policy="nurse", **overrides):
    fields = dict(
        policy=policy,
        query="//patient/name",
        rewritten="/hospital/dept/patientInfo/patient/name",
        cache_hit=bool(index % 2),
        result_count=index,
        visits=index * 3,
        latency_seconds=index * 0.001,
        slow=False,
        profile=None,
        timestamp=1000.0 + index,
    )
    fields.update(overrides)
    return QueryEvent(**fields)


class TestSchema:
    def test_query_event_round_trip(self):
        event = make_query_event(7, slow=True, profile="EXPLAIN ...")
        payload = json.loads(event.to_json())
        rebuilt = event_from_dict(payload)
        assert isinstance(rebuilt, QueryEvent)
        assert rebuilt.to_dict() == event.to_dict()

    @pytest.mark.parametrize(
        "event",
        [
            DenialEvent("nurse", "//trial", "trial", "E_LABEL_DENIED", "no"),
            PolicyEvent("register", "nurse"),
            ErrorEvent("nurse", "//a[", "E_PARSE_XPATH", "bad query"),
            CanaryEvent(
                policy="nurse",
                query="//name",
                sample_rate=0.5,
                expected_count=3,
                actual_count=4,
                missing=0,
                extra=1,
                violations=1,
                ok=False,
            ),
        ],
    )
    def test_every_kind_round_trips(self, event):
        rebuilt = event_from_dict(json.loads(event.to_json()))
        assert type(rebuilt) is type(event)
        assert rebuilt.to_dict() == event.to_dict()

    def test_kind_registry_is_complete(self):
        assert set(EVENT_TYPES) == {
            "query",
            "denial",
            "policy",
            "error",
            "canary",
        }

    def test_unknown_kind_fails_loudly(self):
        with pytest.raises(KeyError):
            event_from_dict({"kind": "from-the-future"})

    def test_timestamp_defaults_to_now(self):
        import time

        before = time.time()
        event = PolicyEvent("register", "p")
        assert before <= event.timestamp <= time.time()

    def test_unknown_payload_keys_are_ignored(self):
        payload = PolicyEvent("drop", "p", timestamp=5.0).to_dict()
        payload["added_in_v99"] = "surprise"
        rebuilt = event_from_dict(payload)
        assert rebuilt.action == "drop" and rebuilt.timestamp == 5.0


class TestCorrelationFields:
    """``trace_id`` (query/denial/error) and ``fingerprint`` (query)
    join audit events to traces and workload entries."""

    def test_query_event_carries_fingerprint_and_trace_id(self):
        event = make_query_event(
            1, fingerprint="92842f23398efdad", trace_id="t-123"
        )
        rebuilt = event_from_dict(json.loads(event.to_json()))
        assert rebuilt.fingerprint == "92842f23398efdad"
        assert rebuilt.trace_id == "t-123"

    def test_defaults_are_empty_strings(self):
        event = make_query_event(0)
        assert event.fingerprint == ""
        assert event.trace_id == ""

    @pytest.mark.parametrize(
        "event",
        [
            DenialEvent(
                "nurse", "//trial", "trial", "E_LABEL_DENIED", "no",
                trace_id="t-9",
            ),
            ErrorEvent(
                "nurse", "//a[", "E_PARSE_XPATH", "bad", trace_id="t-9"
            ),
        ],
    )
    def test_denial_and_error_round_trip_trace_id(self, event):
        rebuilt = event_from_dict(json.loads(event.to_json()))
        assert rebuilt.trace_id == "t-9"
        assert rebuilt.to_dict() == event.to_dict()

    def test_pre_trace_id_payloads_still_parse(self):
        # a JSONL trail written before these fields existed
        payload = make_query_event(2).to_dict()
        del payload["trace_id"]
        del payload["fingerprint"]
        rebuilt = event_from_dict(payload)
        assert rebuilt.trace_id == ""
        assert rebuilt.fingerprint == ""


# JSON-safe scalar values for free-form string-ish fields.
_text = st.text(max_size=40)


@settings(max_examples=60, deadline=None)
@given(
    policy=_text,
    query=_text,
    rewritten=_text,
    cache_hit=st.booleans(),
    result_count=st.integers(min_value=0, max_value=10**9),
    visits=st.integers(min_value=0, max_value=10**9),
    latency=st.floats(
        min_value=0, max_value=1e6, allow_nan=False, allow_infinity=False
    ),
    slow=st.booleans(),
    profile=st.one_of(st.none(), _text),
    timestamp=st.floats(
        min_value=0, max_value=4e9, allow_nan=False, allow_infinity=False
    ),
)
def test_query_event_round_trip_property(
    policy,
    query,
    rewritten,
    cache_hit,
    result_count,
    visits,
    latency,
    slow,
    profile,
    timestamp,
):
    """Any JSON-safe payload survives to_dict -> JSONL -> from_dict."""
    event = QueryEvent(
        policy=policy,
        query=query,
        rewritten=rewritten,
        cache_hit=cache_hit,
        result_count=result_count,
        visits=visits,
        latency_seconds=latency,
        slow=slow,
        profile=profile,
        timestamp=timestamp,
    )
    line = event.to_json()
    (rebuilt,) = list(parse_jsonl([line, "", "   "]))
    assert rebuilt.to_dict() == event.to_dict()


class TestRingBufferSink:
    def test_keeps_most_recent_and_counts_evictions(self):
        sink = RingBufferSink(capacity=3)
        for index in range(5):
            sink.emit(make_query_event(index))
        assert len(sink) == 3
        assert sink.evicted == 2
        assert sink.emitted == 5
        assert [event.result_count for event in sink.events()] == [2, 3, 4]

    def test_filters(self):
        sink = RingBufferSink(capacity=10)
        sink.emit(make_query_event(0, policy="a"))
        sink.emit(make_query_event(1, policy="b"))
        sink.emit(PolicyEvent("register", "a"))
        assert len(sink.events(kind="query")) == 2
        assert len(sink.events(policy="a")) == 2
        assert len(sink.events(kind="query", policy="a")) == 1

    def test_no_evictions_below_capacity(self):
        sink = RingBufferSink(capacity=8)
        for index in range(8):
            sink.emit(make_query_event(index))
        assert sink.evicted == 0 and len(sink) == 8

    def test_clear(self):
        sink = RingBufferSink(capacity=2)
        sink.emit(make_query_event(0))
        sink.clear()
        assert len(sink) == 0

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            RingBufferSink(0)


class TestJsonlFileSink:
    def test_writes_parseable_jsonl(self, tmp_path):
        path = tmp_path / "audit.jsonl"
        sink = JsonlFileSink(path)
        sink.emit(make_query_event(1))
        sink.emit(PolicyEvent("drop", "nurse", timestamp=2.0))
        sink.close()
        events = read_jsonl(path)
        assert [event.kind for event in events] == ["query", "policy"]
        assert events[0].result_count == 1

    def test_rotation_keeps_backups(self, tmp_path):
        path = tmp_path / "audit.jsonl"
        line_size = len(make_query_event(0).to_json()) + 1
        sink = JsonlFileSink(path, max_bytes=line_size * 2, backups=2)
        for index in range(7):
            sink.emit(make_query_event(index))
        sink.close()
        assert sink.rotations >= 2
        assert path.exists()
        assert (tmp_path / "audit.jsonl.1").exists()
        assert (tmp_path / "audit.jsonl.2").exists()
        assert not (tmp_path / "audit.jsonl.3").exists()
        # every surviving line is still valid JSONL
        survivors = (
            read_jsonl(path)
            + read_jsonl(tmp_path / "audit.jsonl.1")
            + read_jsonl(tmp_path / "audit.jsonl.2")
        )
        assert survivors and all(e.kind == "query" for e in survivors)

    def test_write_failures_count_drops_not_raise(self, tmp_path):
        path = tmp_path / "audit.jsonl"
        sink = JsonlFileSink(path)
        sink.emit(make_query_event(0))

        class Broken:
            def write(self, line):
                raise OSError("disk full")

            def close(self):
                pass

        sink._handle = Broken()
        sink.emit(make_query_event(1))  # must not raise
        assert sink.dropped == 1
        assert sink.emitted == 1

    def test_append_resumes_existing_file(self, tmp_path):
        path = tmp_path / "audit.jsonl"
        with JsonlFileSink(path) as sink:
            sink.emit(make_query_event(0))
        with JsonlFileSink(path) as sink:
            sink.emit(make_query_event(1))
        assert len(read_jsonl(path)) == 2


class TestCallbackSink:
    def test_delivers_and_swallows(self):
        seen = []
        sink = CallbackSink(seen.append)
        sink.emit(make_query_event(0))
        assert len(seen) == 1 and sink.emitted == 1

        def explode(event):
            raise RuntimeError("bad consumer")

        bad = CallbackSink(explode)
        bad.emit(make_query_event(0))
        assert bad.dropped == 1


class TestEventPipeline:
    def test_inactive_without_sinks(self):
        pipeline = EventPipeline()
        assert not pipeline.active
        pipeline.emit(make_query_event(0))  # no-op, no error
        assert pipeline.emitted == 0

    def test_fans_out_to_all_sinks(self):
        pipeline = EventPipeline()
        first = pipeline.add_sink(RingBufferSink(4))
        second = pipeline.add_sink(RingBufferSink(4))
        pipeline.emit(make_query_event(0))
        assert len(first) == len(second) == 1
        assert pipeline.emitted == 1

    def test_raising_sink_cannot_fail_emission(self):
        class HostileSink:
            dropped = 0

            def emit(self, event):
                raise RuntimeError("sink is down")

        pipeline = EventPipeline()
        pipeline.add_sink(HostileSink())
        ring = pipeline.add_sink(RingBufferSink(4))
        pipeline.emit(make_query_event(0))  # must not raise
        assert pipeline.dropped == 1
        assert len(ring) == 1  # later sinks still receive the event

    def test_remove_sink(self):
        pipeline = EventPipeline()
        ring = pipeline.add_sink(RingBufferSink(4))
        pipeline.remove_sink(ring)
        pipeline.remove_sink(ring)  # idempotent
        assert not pipeline.active
