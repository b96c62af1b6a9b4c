"""The resource governor end-to-end through the engine.

Typed limit errors across every execution strategy, their audit and
metrics side effects, graceful degradation at the accelerator seams,
and the acceptance bar from the issue: a 50 ms deadline on the Adex
workload's largest document terminates well under 10x the deadline on
both the columnar and object backends.
"""

import time

import pytest

from repro.core.engine import SecureQueryEngine
from repro.core.options import ExecutionOptions
from repro.errors import BudgetExceeded, DeadlineExceeded, FaultInjected
from repro.obs import RingBufferSink, disable_metrics, enable_metrics
from repro.obs.audit import AuditLog
from repro.obs.metrics import metrics_registry
from repro.robustness import (
    DegradationPolicy,
    FaultPlan,
    FaultSpec,
    QueryLimits,
)
from repro.workloads.adex import adex_document, adex_dtd, adex_spec
from repro.workloads.queries import ADEX_QUERY_TEXTS
from repro.workloads.hospital import hospital_dtd, nurse_spec

STRATEGIES = ["virtual", "columnar", "materialized"]


def nurse_engine(**engine_kwargs):
    dtd = hospital_dtd()
    engine = SecureQueryEngine(dtd, **engine_kwargs)
    engine.register_policy("nurse", nurse_spec(dtd), wardNo="2")
    return engine


@pytest.fixture()
def engine():
    return nurse_engine()


class TestTypedLimitErrors:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_max_visits_raises_budget_exceeded(self, engine, hospital_doc, strategy):
        options = ExecutionOptions(
            strategy=strategy, limits=QueryLimits(max_visits=1)
        )
        with pytest.raises(BudgetExceeded) as excinfo:
            engine.query("nurse", "//patient/name", hospital_doc, options=options)
        assert excinfo.value.code == "E_BUDGET"
        assert excinfo.value.dimension == "visits"

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_tiny_deadline_raises_deadline_exceeded(
        self, engine, hospital_doc, strategy
    ):
        options = ExecutionOptions(
            strategy=strategy, limits=QueryLimits(deadline_seconds=1e-9)
        )
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


class TestDegradation:
    def test_store_build_fault_degrades_to_interpreter(self, hospital_doc):
        engine = nurse_engine()
        baseline = engine.query("nurse", "//patient/name", hospital_doc)
        degraded_engine = nurse_engine()
        ring = degraded_engine.add_sink(RingBufferSink(capacity=64))
        with FaultPlan(FaultSpec("store.build", at=1)):
            result = degraded_engine.query(
                "nurse", "//patient/name", hospital_doc
            )
        assert [str(r) for r in result.results] == [
            str(r) for r in baseline.results
        ]
        events = ring.events(kind="degradation")
        assert len(events) == 1
        event = events[0]
        assert event.seam == "store.build"
        assert event.fallback == "interpreter"
        assert event.code == "E_FAULT"
        assert event.policy == "nurse"

    def test_plan_cache_traffic_is_not_a_fault_seam(self, hospital_doc):
        # cache lookups are dict operations: faults named after the
        # retired plan-cache seams never fire and never degrade
        engine = nurse_engine()
        ring = engine.add_sink(RingBufferSink(capacity=64))
        plan = FaultPlan(
            FaultSpec("plan_cache.get", every=1),
            FaultSpec("plan_cache.put", every=1),
        )
        with plan:
            engine.query("nurse", "//patient/name", hospital_doc)
            assert engine.query(
                "nurse", "//patient/name", hospital_doc
            ).report.cache_hit
        assert plan.fired() == 0
        assert ring.events(kind="degradation") == []

    def test_degraded_build_is_retried_next_query(self, hospital_doc):
        engine = nurse_engine()
        options = ExecutionOptions(strategy="columnar")
        with FaultPlan(FaultSpec("store.build", at=1)) as plan:
            engine.query("nurse", "//patient/name", hospital_doc, options=options)
            assert plan.fired() == 1
            # the failed build was not cached: the next query rebuilds,
            # and with the fault disarmed (at=1) it succeeds
            engine.query("nurse", "//patient/name", hospital_doc, options=options)
            assert plan.calls("store.build") == 2
        report = engine.query(
            "nurse", "//patient/name", hospital_doc, options=options
        )
        assert report.results

    def test_strict_policy_propagates(self, hospital_doc):
        engine = nurse_engine(degradation=DegradationPolicy(strict=True))
        with FaultPlan(FaultSpec("store.build", at=1)):
            with pytest.raises(FaultInjected):
                engine.query(
                    "nurse",
                    "//patient/name",
                    hospital_doc,
                    options=ExecutionOptions(strategy="columnar"),
                )

    def test_audit_stats_count_degradations(self, hospital_doc):
        engine = nurse_engine()
        ring = engine.add_sink(RingBufferSink(capacity=64))
        with FaultPlan(FaultSpec("store.build", at=1)):
            engine.query(
                "nurse",
                "//patient/name",
                hospital_doc,
                options=ExecutionOptions(strategy="columnar"),
            )
        stats = AuditLog(ring.events()).stats()
        assert stats["nurse"]["degradations"] == 1
        assert stats["nurse"]["queries"] == 1


class TestDeadlineAcceptance:
    """The issue's acceptance bar: a 50 ms deadline on the largest Adex
    document terminates well under 10x the deadline, on both backends."""

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
        options = ExecutionOptions(
            strategy=strategy,
            limits=QueryLimits(deadline_seconds=self.DEADLINE),
        )
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
