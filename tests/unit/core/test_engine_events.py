"""Audit events emitted by the SecureQueryEngine serving path."""

import pytest

from repro.core.engine import SecureQueryEngine
from repro.core.options import ExecutionOptions
from repro.errors import QueryRejectedError, XPathSyntaxError
from repro.obs.events import RingBufferSink
from repro.workloads.hospital import (
    hospital_document,
    hospital_dtd,
    nurse_spec,
)


@pytest.fixture()
def document():
    return hospital_document(seed=7, max_branch=4)


def build_engine(strict=False):
    dtd = hospital_dtd()
    engine = SecureQueryEngine(dtd, strict=strict)
    ring = engine.add_sink(RingBufferSink(capacity=64))
    engine.register_policy("nurse", nurse_spec(dtd), wardNo="2")
    return engine, ring


class TestPolicyEvents:
    def test_register_drop_invalidate(self):
        engine, ring = build_engine()
        engine.invalidate("nurse")
        engine.invalidate()
        engine.drop_policy("nurse")
        actions = [
            (event.action, event.policy) for event in ring.events(kind="policy")
        ]
        assert actions == [
            ("register", "nurse"),
            ("invalidate", "nurse"),
            ("invalidate", "*"),
            ("drop", "nurse"),
        ]

    def test_drop_of_unknown_policy_emits_nothing(self):
        engine, ring = build_engine()
        engine.drop_policy("ghost")
        actions = [event.action for event in ring.events(kind="policy")]
        assert actions == ["register"]


class TestQueryEvents:
    def test_answered_query_emits_one_event(self, document):
        engine, ring = build_engine()
        result = engine.query("nurse", "//patient/name", document)
        (event,) = ring.events(kind="query")
        assert event.policy == "nurse"
        assert event.query == "//patient/name"
        assert "dept" in event.rewritten  # document query, not view query
        assert "strategy" not in event.to_dict()
        assert event.result_count == len(result)
        assert event.visits == result.report.visits
        assert event.latency_seconds >= 0
        assert not event.slow and event.profile is None

    def test_cache_hit_is_recorded(self, document):
        engine, ring = build_engine()
        engine.query("nurse", "//patient", document)
        engine.query("nurse", "//patient", document)
        first, second = ring.events(kind="query")
        assert not first.cache_hit
        assert second.cache_hit

    def test_no_sink_means_no_events(self, document):
        dtd = hospital_dtd()
        engine = SecureQueryEngine(dtd)
        engine.register_policy("nurse", nurse_spec(dtd), wardNo="2")
        engine.query("nurse", "//patient", document)
        assert engine.events.emitted == 0

    def test_slow_query_attaches_profile(self, document):
        engine, ring = build_engine()
        options = ExecutionOptions(slow_query_threshold=0.0)
        engine.query("nurse", "//patient/name", document, options=options)
        (event,) = ring.events(kind="query")
        assert event.slow
        assert event.profile and "rows" in event.profile

    def test_fast_query_below_threshold_not_slow(self, document):
        engine, ring = build_engine()
        options = ExecutionOptions(slow_query_threshold=60.0)
        engine.query("nurse", "//patient/name", document, options=options)
        (event,) = ring.events(kind="query")
        assert not event.slow and event.profile is None


class TestDenialEvents:
    def test_strict_rejection_emits_denial(self, document):
        engine, ring = build_engine(strict=True)
        with pytest.raises(QueryRejectedError):
            engine.query("nurse", "//clinicalTrial", document)
        (event,) = ring.events(kind="denial")
        assert event.policy == "nurse"
        assert event.label == "clinicalTrial"
        assert event.code == "E_LABEL_DENIED"
        assert "clinicalTrial" in event.message
        # a denial is not an engine error: no ErrorEvent rides along
        assert ring.events(kind="error") == []

    def test_accepted_query_emits_no_denial(self, document):
        engine, ring = build_engine(strict=True)
        engine.query("nurse", "//patient", document)
        assert ring.events(kind="denial") == []


class TestErrorEvents:
    def test_parse_failure_emits_error_event(self, document):
        engine, ring = build_engine()
        with pytest.raises(XPathSyntaxError):
            engine.query("nurse", "//patient[", document)
        (event,) = ring.events(kind="error")
        assert event.policy == "nurse"
        assert event.query == "//patient["
        assert event.code == "E_PARSE_XPATH"


class TestCanaryWiring:
    def test_enable_canary_checks_every_query_at_rate_one(self, document):
        engine, ring = build_engine()
        canary = engine.enable_canary(sample_rate=1.0)
        assert engine.canary is canary
        engine.query("nurse", "//patient/name", document)
        engine.query("nurse", "//patient/name", document)
        events = ring.events(kind="canary")
        assert len(events) == 2
        assert all(event.ok and event.violations == 0 for event in events)
        assert canary.checks == 2 and canary.violations == 0

    def test_disable_canary(self, document):
        engine, ring = build_engine()
        engine.enable_canary(sample_rate=1.0)
        engine.disable_canary()
        assert engine.canary is None
        engine.query("nurse", "//patient", document)
        assert ring.events(kind="canary") == []

    def test_retired_project_key_is_projected_and_checked(self, document):
        # 6.x's project=False returned raw nodes and skipped the
        # canary; the key is now ignored, so the answer is projected
        # and the canary checks it and finds it clean.
        engine, ring = build_engine()
        engine.enable_canary(sample_rate=1.0)
        engine.query(
            "nurse",
            "//patient",
            document,
            options=ExecutionOptions.from_dict({"project": False}),
        )
        (event,) = ring.events(kind="canary")
        assert event.ok

    def test_canary_counts_in_metrics(self, document):
        from repro.obs.metrics import (
            disable_metrics,
            enable_metrics,
            metrics_registry,
        )

        engine, _ = build_engine()
        engine.enable_canary(sample_rate=1.0)
        metrics_registry().reset()
        enable_metrics()
        try:
            engine.query("nurse", "//patient", document)
            snapshot = metrics_registry().snapshot()
            assert snapshot["counters"].get("canary.checks") == 1
            assert "canary.violations" not in snapshot["counters"]
        finally:
            disable_metrics()


class TestExportFacade:
    def test_export_prometheus_renders_registry(self, document):
        from repro.obs.metrics import (
            disable_metrics,
            enable_metrics,
            metrics_registry,
        )

        engine, _ = build_engine()
        metrics_registry().reset()
        enable_metrics()
        try:
            engine.query("nurse", "//patient", document)
            text = engine.export_prometheus()
            assert "# TYPE repro_query_count_total counter" in text
        finally:
            disable_metrics()
