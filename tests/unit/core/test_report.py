"""QueryReport coverage: stage timings across execution options, the
end-to-end total, trace profiles, and engine-level metrics."""

import pytest

from repro.core.engine import QueryReport, SecureQueryEngine
from repro.core.options import ExecutionOptions
from repro.obs.events import Event, RingBufferSink
from repro.obs.metrics import (
    disable_metrics,
    enable_metrics,
    metrics_registry,
)
from repro.obs.profile import ProfileCollector
from repro.robustness.governor import Budget, QueryLimits
from repro.workloads.hospital import (
    hospital_document,
    hospital_dtd,
    nurse_spec,
)


def _count_calls(monkeypatch, **targets):
    """Wrap each ``name: (owner, attribute)`` method so that every call
    counts under ``name``; returns the live counts."""
    calls = dict.fromkeys(targets, 0)

    def counting(name, original):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    for name, (owner, attribute) in targets.items():
        monkeypatch.setattr(
            owner, attribute, counting(name, getattr(owner, attribute))
        )
    return calls


@pytest.fixture()
def engine():
    dtd = hospital_dtd()
    built = SecureQueryEngine(dtd)
    built.register_policy("nurse", nurse_spec(dtd), wardNo="2")
    return built


@pytest.fixture()
def document():
    return hospital_document(seed=7, max_branch=4)


class TestStageTimings:
    def test_cold_cache_carries_compile_stages(self, engine, document):
        report = engine.query("nurse", "//patient", document).report
        assert not report.cache_hit
        assert {"parse", "rewrite", "optimize", "evaluate"} <= set(
            report.timings
        )

    def test_warm_cache_still_reports_evaluate(self, engine, document):
        engine.query("nurse", "//patient", document)
        report = engine.query("nurse", "//patient", document).report
        assert report.cache_hit
        assert "evaluate" in report.timings

    def test_uncached_path_reports_every_stage(self, engine, document):
        # use_cache=False bypasses the cache, not the plan path: the
        # query compiles a fresh plan like any cache miss
        report = engine.query(
            "nurse",
            "//patient",
            document,
            options=ExecutionOptions(use_cache=False),
        ).report
        assert not report.cache_hit
        assert {"parse", "rewrite", "optimize", "compile", "evaluate"} <= set(
            report.timings
        )

    def test_columnar_path_reports_same_stages(self, engine, document):
        # 8.x's wire alias of the one path is ignored, and nothing in
        # the report names an execution path
        report = engine.query(
            "nurse",
            "//patient",
            document,
            options=ExecutionOptions.from_dict({"strategy": "columnar"}),
        ).report
        assert "strategy" not in report.to_dict()
        assert {"parse", "rewrite", "optimize", "evaluate", "project"} <= set(
            report.timings
        )
        assert "materialize" not in report.timings

    @pytest.mark.parametrize(
        "options",
        [
            ExecutionOptions(),
            # 8.x wire spellings of the retired ``strategy`` key
            ExecutionOptions.from_dict({"strategy": "columnar"}),
            ExecutionOptions.from_dict({"strategy": "materialized"}),
            ExecutionOptions(use_cache=False),
        ],
        ids=["virtual", "columnar", "materialized", "uncached"],
    )
    def test_timings_non_negative(self, engine, document, options):
        report = engine.query(
            "nurse", "//patient", document, options=options
        ).report
        assert all(seconds >= 0.0 for seconds in report.timings.values())
        assert report.total_seconds >= 0.0


class TestTotalSeconds:
    def test_total_is_wall_time_not_stage_sum(self):
        # a warm-cache report carries the entry's build-time stages
        # next to this request's evaluate; the total must come from
        # the enclosing span, never from summing overlapping stages
        report = QueryReport(
            "p",
            "//a",
            "//a",
            "//a",
            1,
            1,
            timings={"parse": 0.5, "rewrite": 0.5, "evaluate": 0.001},
            total_seconds=0.002,
        )
        assert report.total_time() == 0.002

    def test_sum_fallback_without_span(self):
        report = QueryReport(
            "p", "//a", "//a", "//a", 1, 1, timings={"parse": 0.25}
        )
        assert report.total_time() == 0.25

    def test_engine_total_covers_every_stage(self, engine, document):
        engine.query("nurse", "//patient", document)
        report = engine.query("nurse", "//patient", document).report
        assert report.cache_hit
        # the warm request only ran evaluate; the stale build-time
        # stages must not inflate the end-to-end number
        assert report.total_seconds >= report.timings["evaluate"]
        assert report.total_seconds < sum(report.timings.values()) + 1.0


class TestRenderings:
    def test_summary_is_stable(self, engine, document):
        report = engine.query("nurse", "//patient", document).report
        text = report.summary()
        for field in (
            "policy   :",
            "query    :",
            "rewritten:",
            "optimized:",
            "cache    :",
            "results  :",
            "timings  :",
            "total    :",
        ):
            assert field in text

    def test_repr_mentions_key_fields(self, engine, document):
        report = engine.query("nurse", "//patient", document).report
        text = repr(report)
        assert text.startswith("QueryReport(")
        assert "policy='nurse'" in text
        assert "cache_hit=False" in text
        assert "strategy" not in text

    def test_to_dict_is_json_safe(self, engine, document):
        import json

        report = engine.query(
            "nurse",
            "//patient",
            document,
            options=ExecutionOptions(trace=True),
        ).report
        out = report.to_dict()
        json.dumps(out)  # must not raise
        assert out["policy"] == "nurse"
        assert out["total_seconds"] == report.total_seconds
        assert out["profile"]["plans"]


class TestTraceProfile:
    def test_untraced_query_has_no_profile(self, engine, document):
        report = engine.query("nurse", "//patient", document).report
        assert report.profile is None

    def test_traced_query_builds_profile_tree(self, engine, document):
        result = engine.query(
            "nurse",
            "//patient",
            document,
            options=ExecutionOptions(trace=True),
        )
        profile = result.report.profile
        assert profile is not None
        assert profile.roots
        text = profile.render()
        assert text.splitlines()[0] == "EXPLAIN ANALYZE"
        assert "calls=" in text and "rows=" in text

    def test_columnar_profile_names_columnar_kernels(
        self, engine, document
    ):
        result = engine.query(
            "nurse",
            "//patient",
            document,
            options=ExecutionOptions(trace=True),
        )
        text = result.report.profile.render()
        assert "posting-merge-join" in text or "child-link-walk" in text

    def test_trace_does_not_change_answers(self, engine, document):
        plain = engine.query("nurse", "//patient//bill", document)
        traced = engine.query(
            "nurse",
            "//patient//bill",
            document,
            options=ExecutionOptions(trace=True),
        )
        assert [str(n) for n in plain] == [str(n) for n in traced]

    def test_profile_has_one_root_per_view_target(self, engine, document):
        result = engine.query(
            "nurse",
            "//patient//bill | //patient/name/text()",
            document,
            options=ExecutionOptions(trace=True),
        )
        profile = result.report.profile
        (compiled,) = engine.plan_cache.entries()
        assert len(compiled.plans) > 1
        assert [root.detail for root in profile.roots] == [
            target for target, _, _ in compiled.plans
        ]
        assert all(root.name == "target" for root in profile.roots)


class TestEngineMetrics:
    def test_queries_fold_into_registry(self, engine, document):
        registry = metrics_registry()
        registry.reset()
        enable_metrics()
        try:
            engine.query("nurse", "//patient", document)
            engine.query("nurse", "//patient", document)
            snap = engine.metrics()
        finally:
            disable_metrics()
            registry.reset()
        assert snap["counters"]["query.count"] == 2
        assert not [
            name for name in snap["counters"] if name.startswith("query.count.")
        ]
        assert snap["counters"]["plan_cache.misses"] == 1
        assert snap["counters"]["plan_cache.hits"] == 1
        assert snap["histograms"]["query.total_seconds"]["count"] == 2
        # the warm request must not re-observe build-time stages; it
        # parses (to find its shape), so parse is observed per request
        assert snap["histograms"]["stage.rewrite_seconds"]["count"] == 1
        assert snap["histograms"]["stage.parse_seconds"]["count"] == 2
        assert snap["histograms"]["stage.evaluate_seconds"]["count"] == 2

    def test_disabled_metrics_record_nothing(
        self, engine, document, monkeypatch
    ):
        registry = metrics_registry()
        registry.reset()
        calls = _count_calls(
            monkeypatch,
            collectors=(ProfileCollector, "__init__"),
            events=(Event, "__init__"),
            budgets=(Budget, "__init__"),
            checkpoints=(Budget, "checkpoint"),
            ticks=(Budget, "tick"),
        )
        for _ in range(2):  # cold, then warm
            engine.query("nurse", "//patient", document)
        snap = engine.metrics()
        # handles created by earlier enabled runs survive reset() with
        # value 0; a disabled run must not move any of them
        assert snap["counters"].get("query.count", 0) == 0
        # untraced, no slow threshold, no sink, no limits: the default
        # path builds no profile, no audit event and no budget
        assert calls == dict.fromkeys(calls, 0)
        # each of those counters moves as soon as its feature is on
        engine.query(
            "nurse", "//patient", document,
            options=ExecutionOptions(trace=True),
        )
        engine.query(
            "nurse", "//patient", document,
            options=ExecutionOptions(slow_query_threshold=60.0),
        )
        assert calls["collectors"] == 2
        sink = engine.add_sink(RingBufferSink(capacity=4))
        engine.query("nurse", "//patient", document)
        engine.remove_sink(sink)
        assert calls["events"] == 1 and sink.emitted == 1
        engine.query(
            "nurse", "//patient", document,
            options=ExecutionOptions(
                limits=QueryLimits(max_visits=10**9)
            ),
        )
        assert calls["budgets"] == 1 and calls["checkpoints"] > 0

    def test_columnar_records_node_table_build(self, engine, document):
        registry = metrics_registry()
        registry.reset()
        enable_metrics()
        try:
            engine.query("nurse", "//patient", document)
            snap = engine.metrics()
        finally:
            disable_metrics()
            registry.reset()
        assert snap["counters"]["node_table.builds"] == 1
        assert snap["histograms"]["node_table.rows"]["count"] == 1
