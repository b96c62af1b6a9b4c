"""AuditLog filtering, tailing, and per-policy accounting."""

import pytest

from repro.obs import percentile
from repro.obs.audit import AuditLog
from repro.obs.events import (
    CanaryEvent,
    DenialEvent,
    ErrorEvent,
    JsonlFileSink,
    PolicyEvent,
    QueryEvent,
    RingBufferSink,
)


def query_event(policy, latency, timestamp, cache_hit=False, slow=False):
    return QueryEvent(
        policy=policy,
        query="//patient/name",
        rewritten="/hospital//name",
        latency_seconds=latency,
        cache_hit=cache_hit,
        slow=slow,
        timestamp=timestamp,
    )


@pytest.fixture
def log():
    return AuditLog(
        [
            PolicyEvent("register", "nurse", timestamp=1.0),
            query_event("nurse", 0.010, 2.0, cache_hit=False),
            query_event("nurse", 0.002, 3.0, cache_hit=True),
            query_event("doctor", 0.100, 4.0, slow=True),
            DenialEvent("nurse", "//trial", "trial", timestamp=5.0),
            ErrorEvent("", "//a[", "E_PARSE_XPATH", "bad", timestamp=6.0),
            CanaryEvent(
                policy="nurse", query="//name", violations=0, timestamp=7.0
            ),
            CanaryEvent(
                policy="doctor",
                query="//name",
                missing=1,
                extra=2,
                violations=3,
                ok=False,
                timestamp=8.0,
            ),
        ]
    )


class TestPercentile:
    def test_empty(self):
        assert percentile([], 0.5) == 0.0

    def test_single_value(self):
        assert percentile([7.0], 0.5) == 7.0
        assert percentile([7.0], 0.95) == 7.0

    def test_nearest_rank(self):
        values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
        assert percentile(values, 0.50) == 5.0
        assert percentile(values, 0.95) == 10.0
        assert percentile(values, 0.0) == 1.0
        assert percentile(values, 1.0) == 10.0

    def test_unsorted_input(self):
        assert percentile([9.0, 1.0, 5.0], 0.5) == 5.0

    def test_exact_rank_survives_float_noise(self):
        # 0.07 * 100 is 7.000000000000001 in floating point
        assert percentile([float(v) for v in range(1, 101)], 0.07) == 7.0


class TestFiltering:
    def test_by_kind(self, log):
        assert len(log.events(kind="query")) == 3
        assert len(log.events(kind="canary")) == 2

    def test_by_policy(self, log):
        kinds = [event.kind for event in log.events(policy="nurse")]
        assert kinds == ["policy", "query", "query", "denial", "canary"]

    def test_time_window_since_inclusive_until_exclusive(self, log):
        window = log.events(since=2.0, until=5.0)
        assert [event.timestamp for event in window] == [2.0, 3.0, 4.0]

    def test_combined(self, log):
        assert len(log.events(kind="query", policy="doctor")) == 1

    def test_tail(self, log):
        latest = log.tail(count=2)
        assert [event.timestamp for event in latest] == [7.0, 8.0]
        assert len(log.tail(count=100)) == len(log)
        assert [e.kind for e in log.tail(count=1, kind="query")] == ["query"]

    def test_policies(self, log):
        assert log.policies() == ["doctor", "nurse"]

    def test_len_and_iter(self, log):
        assert len(log) == 8
        assert len(list(log)) == 8


class TestStats:
    def test_per_policy_buckets(self, log):
        stats = log.stats()
        assert set(stats) == {"nurse", "doctor", "-"}

        nurse = stats["nurse"]
        assert nurse["queries"] == 2
        assert nurse["cache_hits"] == 1
        assert nurse["slow"] == 0
        assert nurse["denials"] == 1
        assert nurse["errors"] == 0
        assert nurse["canary_checks"] == 1
        assert nurse["canary_violations"] == 0
        assert nurse["latency"]["count"] == 2
        assert nurse["latency"]["mean"] == pytest.approx(0.006)
        assert nurse["latency"]["max"] == 0.010

        doctor = stats["doctor"]
        assert doctor["queries"] == 1
        assert doctor["slow"] == 1
        assert doctor["canary_violations"] == 3
        assert doctor["latency"]["p50"] == 0.100
        assert doctor["latency"]["p95"] == 0.100

    def test_policyless_events_bucket_under_dash(self, log):
        assert log.stats()["-"]["errors"] == 1

    def test_single_policy_filter(self, log):
        stats = log.stats(policy="doctor")
        assert set(stats) == {"doctor"}

    def test_empty_log(self):
        assert AuditLog().stats() == {}


class TestConstruction:
    def test_from_sink(self):
        sink = RingBufferSink(capacity=4)
        sink.emit(query_event("nurse", 0.001, 1.0))
        log = AuditLog.from_sink(sink)
        assert len(log) == 1 and log.stats()["nurse"]["queries"] == 1

    def test_from_jsonl_round_trip(self, tmp_path, log):
        path = tmp_path / "audit.jsonl"
        with JsonlFileSink(path) as sink:
            for event in log:
                sink.emit(event)
        reloaded = AuditLog.from_jsonl(path)
        assert len(reloaded) == len(log)
        assert reloaded.stats() == log.stats()

    def test_add(self):
        log = AuditLog()
        log.add(query_event("nurse", 0.001, 1.0))
        assert len(log) == 1
