"""The redesigned query surface: ``ExecutionOptions``, the structured
``QueryResult``, and the 2.0 removal of the pre-1.1 boolean keywords
(``options=ExecutionOptions(...)`` is the only spelling now)."""

import dataclasses
import warnings

import pytest

from repro.core.engine import QueryResult, SecureQueryEngine
from repro.core.options import DEFAULT_OPTIONS, ExecutionOptions
from repro.workloads.hospital import (
    hospital_document,
    hospital_dtd,
    nurse_spec,
)


@pytest.fixture()
def engine():
    dtd = hospital_dtd()
    built = SecureQueryEngine(dtd)
    built.register_policy("nurse", nurse_spec(dtd), wardNo="2")
    return built


@pytest.fixture()
def document():
    return hospital_document(seed=7, max_branch=4)


class TestExecutionOptions:
    def test_defaults(self):
        options = ExecutionOptions()
        assert options.use_cache and not options.trace
        assert options == DEFAULT_OPTIONS
        assert [field.name for field in dataclasses.fields(options)] == [
            "use_cache", "trace", "slow_query_threshold", "limits",
        ]

    def test_legacy_strategy_alias_normalized(self):
        # every spelling 8.x accepted on the wire reads as the one path
        for name in ("rewrite", "columnar", "virtual", "materialized"):
            assert ExecutionOptions.from_dict({"strategy": name}) == (
                DEFAULT_OPTIONS
            )

    def test_unknown_strategy_rejected(self):
        # 9.0 has no execution-path keyword, as 7.0 has no optimize=
        for name in ("magic", "materialized"):
            with pytest.raises(TypeError):
                ExecutionOptions(strategy=name)

    def test_with_copies(self):
        options = ExecutionOptions().with_(use_cache=False)
        assert not options.use_cache
        assert DEFAULT_OPTIONS.use_cache

    def test_frozen(self):
        with pytest.raises(Exception):
            ExecutionOptions().use_cache = False


class TestQueryResult:
    def test_is_list_compatible(self, engine, document):
        result = engine.query("nurse", "//patient", document)
        assert isinstance(result, QueryResult)
        assert isinstance(result, list)
        assert result.results == list(result)
        assert engine.query("nurse", "//clinicalTrial", document) == []

    def test_report_attached(self, engine, document):
        result = engine.query("nurse", "//patient", document)
        assert result.report.policy == "nurse"
        assert result.report.result_count == len(result)
        assert not hasattr(result.report, "strategy")

    def test_materialized_report(self, engine, document):
        # 8.x's wire ``strategy: "materialized"`` gets the one path's
        # report: plan-cache status, no view-tree build
        retired = ExecutionOptions.from_dict({"strategy": "materialized"})
        result = engine.query("nurse", "//patient", document, options=retired)
        assert "materialize" not in result.report.timings
        assert "project" in result.report.timings
        again = engine.query("nurse", "//patient", document, options=retired)
        assert again.report.cache_hit  # the compiled plan, reused

    def test_report_repr_and_summary_include_optimized(self, engine, document):
        report = engine.query("nurse", "//patient", document).report
        assert str(report.optimized) in repr(report)
        summary = report.summary()
        assert "optimized: %s" % report.optimized in summary
        assert "timings" in summary
        assert "plan cache" in summary


class TestLegacyKeywordsRemoved:
    """The 1.x per-call boolean keywords are gone in 2.0: ``query()``
    and ``explain()`` take ``options`` only, and reject everything
    else with ``TypeError`` (not a silent ignore)."""

    def test_legacy_boolean_keyword_rejected(self, engine, document):
        with pytest.raises(TypeError):
            engine.query(
                "nurse", "//patient", document, optimize=True, use_index=True
            )

    def test_legacy_project_keyword_rejected(self, engine, document):
        with pytest.raises(TypeError):
            engine.query("nurse", "//patient", document, project=False)

    def test_legacy_strategy_keyword_rejected(self, engine, document):
        with pytest.raises(TypeError):
            engine.query(
                "nurse", "//patient", document, strategy="materialized"
            )

    def test_unknown_keyword_rejected(self, engine, document):
        with pytest.raises(TypeError):
            engine.query("nurse", "//patient", document, turbo=True)

    def test_positional_bool_rejected(self, engine, document):
        # pre-1.1 call shape: optimize passed positionally after the
        # document — now a typed error, not a silent options misparse
        with pytest.raises(TypeError, match="ExecutionOptions"):
            engine.query("nurse", "//patient", document, False)

    def test_explain_rejects_legacy_keyword(self, engine, document):
        with pytest.raises(TypeError):
            engine.explain("nurse", "//patient", document, optimize=False)

    def test_options_path_does_not_warn(self, engine, document):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            engine.query(
                "nurse", "//patient", document, options=ExecutionOptions()
            )
            engine.query("nurse", "//patient", document)
            engine.explain(
                "nurse",
                "//patient",
                document,
                options=ExecutionOptions(use_cache=False),
            )

    def test_options_replaces_each_legacy_spelling(self, engine, document):
        # optimize= and project= have no spelling since 7.0, strategy=
        # none since 9.0: every answer is projected, every element
        # target runs optimized, and there is one execution path
        for retired in ("optimize", "project", "strategy"):
            with pytest.raises(TypeError):
                ExecutionOptions(**{retired: False})
        uncached = engine.query(
            "nurse",
            "//patient",
            document,
            options=ExecutionOptions(use_cache=False),
        )
        assert not uncached.report.cache_hit


class TestOptionsWireShape:
    def test_round_trip_defaults(self):
        options = ExecutionOptions()
        assert ExecutionOptions.from_dict(options.to_dict()) == options

    def test_round_trip_with_limits(self):
        from repro.robustness.governor import QueryLimits

        options = ExecutionOptions(
            use_cache=False,
            trace=True,
            slow_query_threshold=0.25,
            limits=QueryLimits(deadline_seconds=0.5, max_results=10),
        )
        assert ExecutionOptions.from_dict(options.to_dict()) == options

    def test_missing_keys_take_defaults(self):
        assert ExecutionOptions.from_dict({}) == ExecutionOptions()

    def test_unknown_keys_ignored(self):
        options = ExecutionOptions.from_dict(
            {"strategy": "materialized", "use_index": True, "future_knob": 42}
        )
        assert options == DEFAULT_OPTIONS
        assert "strategy" not in options.to_dict()
