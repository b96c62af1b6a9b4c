"""The resource governor end-to-end through the engine.

Typed limit errors (also for requests that still carry a retired
execution-path key), their audit and metrics side effects, a failed
NodeTable build failing the query, and the deadline bar: a 50 ms
deadline on the Adex workload's largest document terminates well under
10x the deadline.
"""

import time

import pytest

from repro.core.engine import SecureQueryEngine
from repro.core.options import ExecutionOptions
from repro.errors import BudgetExceeded, DeadlineExceeded
from repro.obs import RingBufferSink, disable_metrics, enable_metrics
from repro.obs.metrics import metrics_registry
from repro.robustness import QueryLimits
from repro.workloads.adex import adex_document, adex_dtd, adex_spec
from repro.workloads.queries import ADEX_QUERY_TEXTS
from repro.workloads.hospital import hospital_dtd, nurse_spec
from repro.xmlmodel.store import NodeTable

#: 8.x's wire spellings of the retired ``strategy`` key.  9.0 ignores
#: it, so no spelling may reach an ungoverned path.
RETIRED_STRATEGIES = ["virtual", "columnar", "materialized"]


def governed(strategy, **limits):
    """Wire options of an 8.x client: ``strategy`` plus ``limits``."""
    return ExecutionOptions.from_dict(
        {"strategy": strategy, "limits": QueryLimits(**limits).to_dict()}
    )


def nurse_engine():
    dtd = hospital_dtd()
    engine = SecureQueryEngine(dtd)
    engine.register_policy("nurse", nurse_spec(dtd), wardNo="2")
    return engine


@pytest.fixture()
def engine():
    return nurse_engine()


class TestTypedLimitErrors:
    @pytest.mark.parametrize("strategy", RETIRED_STRATEGIES)
    def test_max_visits_raises_budget_exceeded(self, engine, hospital_doc, strategy):
        options = governed(strategy, max_visits=1)
        with pytest.raises(BudgetExceeded) as excinfo:
            engine.query("nurse", "//patient/name", hospital_doc, options=options)
        assert excinfo.value.code == "E_BUDGET"
        assert excinfo.value.dimension == "visits"

    @pytest.mark.parametrize("strategy", RETIRED_STRATEGIES)
    def test_tiny_deadline_raises_deadline_exceeded(
        self, engine, hospital_doc, strategy
    ):
        options = governed(strategy, deadline_seconds=1e-9)
        with pytest.raises(DeadlineExceeded) as excinfo:
            engine.query("nurse", "//patient/name", hospital_doc, options=options)
        assert excinfo.value.code == "E_DEADLINE"

    def test_uncached_pipeline_is_governed_too(self, engine, hospital_doc):
        options = ExecutionOptions(
            use_cache=False, limits=QueryLimits(max_visits=1)
        )
        with pytest.raises(BudgetExceeded):
            engine.query("nurse", "//patient/name", hospital_doc, options=options)

    def test_max_results(self, engine, hospital_doc):
        baseline = engine.query("nurse", "//patient/name", hospital_doc)
        assert len(baseline.results) >= 2
        options = ExecutionOptions(limits=QueryLimits(max_results=1))
        with pytest.raises(BudgetExceeded) as excinfo:
            engine.query("nurse", "//patient/name", hospital_doc, options=options)
        assert excinfo.value.dimension == "results"

    def test_generous_limits_leave_answers_unchanged(self, engine, hospital_doc):
        baseline = engine.query("nurse", "//patient/name", hospital_doc)
        options = ExecutionOptions(
            limits=QueryLimits(
                deadline_seconds=30.0,
                max_results=10**6,
                max_visits=10**9,
                max_frontier_rows=10**9,
            )
        )
        governed = engine.query(
            "nurse", "//patient/name", hospital_doc, options=options
        )
        assert [str(r) for r in governed.results] == [
            str(r) for r in baseline.results
        ]

    def test_unlimited_limits_are_a_noop(self, engine, hospital_doc):
        options = ExecutionOptions(limits=QueryLimits())
        result = engine.query(
            "nurse", "//patient/name", hospital_doc, options=options
        )
        assert result.results


class TestAuditAndMetrics:
    def test_limit_errors_become_error_events(self, engine, hospital_doc):
        ring = engine.add_sink(RingBufferSink(capacity=64))
        for limits in (
            QueryLimits(max_visits=1),
            QueryLimits(deadline_seconds=1e-9),
        ):
            with pytest.raises(Exception):
                engine.query(
                    "nurse",
                    "//patient/name",
                    hospital_doc,
                    options=ExecutionOptions(limits=limits),
                )
        codes = [event.code for event in ring.events(kind="error")]
        assert codes == ["E_BUDGET", "E_DEADLINE"]
        assert all(
            event.policy == "nurse" for event in ring.events(kind="error")
        )

    def test_governor_metrics_counters(self, engine, hospital_doc):
        enable_metrics()
        try:
            registry = metrics_registry()
            before = registry.snapshot()["counters"]
            with pytest.raises(BudgetExceeded):
                engine.query(
                    "nurse",
                    "//patient/name",
                    hospital_doc,
                    options=ExecutionOptions(limits=QueryLimits(max_visits=1)),
                )
            with pytest.raises(DeadlineExceeded):
                engine.query(
                    "nurse",
                    "//patient/name",
                    hospital_doc,
                    options=ExecutionOptions(
                        limits=QueryLimits(deadline_seconds=1e-9)
                    ),
                )
            after = registry.snapshot()["counters"]

            def delta(name):
                return after.get(name, 0) - before.get(name, 0)

            assert delta("governor.budget_exceeded") == 1
            assert delta("governor.budget_exceeded.visits") == 1
            assert delta("governor.deadline_exceeded") == 1
        finally:
            disable_metrics()


def _broken_build(self, *args, **kwargs):
    raise RuntimeError("node table build failed")


class TestDegradation:
    """A failed NodeTable build is not degraded to the interpreter: it
    fails the query, and nothing is cached in its place."""

    def test_degraded_build_is_retried_next_query(self, hospital_doc, monkeypatch):
        engine = nurse_engine()
        options = ExecutionOptions()
        with monkeypatch.context() as patch:
            patch.setattr(NodeTable, "__init__", _broken_build)
            with pytest.raises(RuntimeError):
                engine.query("nurse", "//patient/name", hospital_doc, options=options)
        # the failed build was not cached: the next query builds it
        assert engine._stores == {}
        result = engine.query(
            "nurse", "//patient/name", hospital_doc, options=options
        )
        assert len(engine._stores) == 1
        assert result.results

    def test_strict_policy_propagates(self, hospital_doc, monkeypatch):
        # every engine is strict: the build's own error reaches the caller
        engine = nurse_engine()
        monkeypatch.setattr(NodeTable, "__init__", _broken_build)
        with pytest.raises(RuntimeError, match="node table build failed"):
            engine.query(
                "nurse",
                "//patient/name",
                hospital_doc,
            )


class TestDeadlineAcceptance:
    """The acceptance bar: a 50 ms deadline on the largest Adex
    document terminates well under 10x the deadline."""

    DEADLINE = 0.050
    CEILING = 10 * DEADLINE

    @pytest.fixture(scope="class")
    def adex_engine(self):
        dtd = adex_dtd()
        engine = SecureQueryEngine(dtd)
        engine.register_policy("adex", adex_spec(dtd))
        return engine

    @pytest.fixture(scope="class")
    def big_doc(self):
        # the largest document the benchmarks run (D4-scale)
        return adex_document(seed=3, buyers=40, ads=400)

    @pytest.mark.parametrize("strategy", ["virtual", "columnar"])
    def test_deadline_bounds_wall_clock(self, adex_engine, big_doc, strategy):
        options = governed(strategy, deadline_seconds=self.DEADLINE)
        started = time.perf_counter()
        try:
            adex_engine.query("adex", ADEX_QUERY_TEXTS["Q3"], big_doc, options=options)
        except DeadlineExceeded as error:
            assert error.elapsed_seconds < self.CEILING
        elapsed = time.perf_counter() - started
        # terminate (answer or typed error) well under 10x the deadline
        assert elapsed < self.CEILING

    def test_deadline_error_reports_overshoot(self, adex_engine, big_doc):
        options = ExecutionOptions(
            limits=QueryLimits(deadline_seconds=1e-6)
        )
        with pytest.raises(DeadlineExceeded) as excinfo:
            adex_engine.query(
                "adex", ADEX_QUERY_TEXTS["Q3"], big_doc, options=options
            )
        error = excinfo.value
        assert error.deadline_seconds == 1e-6
        assert error.elapsed_seconds >= 1e-6
