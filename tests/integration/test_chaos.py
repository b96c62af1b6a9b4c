"""The chaos suite: fault plans at every instrumented seam, across
both workloads and every wire spelling of the retired execution-path
key (9.0 has one path; an 8.x client's request must be as graceful).

The invariant under injected faults is *graceful*: each query either
answers **identically** to the fault-free baseline (the fault missed
it, or only added latency) or raises a **typed**
:class:`~repro.errors.ReproError` — never an unhandled exception,
never a hang, and never a security-canary violation.
"""

import pytest

from repro.core.engine import SecureQueryEngine
from repro.core.options import ExecutionOptions
from repro.errors import FaultInjected, ReproError
from repro.obs import RingBufferSink
from repro.robustness import (
    FaultPlan,
    FaultSpec,
    FaultySink,
    QueryLimits,
)
from repro.robustness.faults import SITES, active_plan
from repro.workloads.adex import adex_document, adex_dtd, adex_spec
from repro.workloads.hospital import hospital_document, hospital_dtd, nurse_spec
from repro.workloads.queries import ADEX_QUERY_TEXTS

pytestmark = pytest.mark.chaos

#: 8.x's wire spellings of the retired ``strategy`` key, which 9.0
#: ignores.
RETIRED_STRATEGIES = ["virtual", "columnar", "materialized"]

NURSE_QUERIES = [
    "//patient/name",
    "//patient//bill",
    "//patient[wardNo]/name",
    "//name/text()",
]


@pytest.fixture(autouse=True)
def no_leftover_plan():
    yield
    assert active_plan() is None, "a chaos test leaked an installed FaultPlan"


def run_workload(engine, policy, document, queries, strategy="virtual"):
    """Run every query with the wire options of an 8.x client naming
    ``strategy``; return {query: [serialized results] or typed error
    code}.  Anything non-Repro propagates and fails the test."""
    outcomes = {}
    options = ExecutionOptions.from_dict({"strategy": strategy})
    for query in queries:
        try:
            result = engine.query(policy, query, document, options=options)
        except ReproError as error:
            outcomes[query] = error.code
        else:
            outcomes[query] = [str(r) for r in result.results]
    return outcomes


def hospital_setup():
    dtd = hospital_dtd()
    engine = SecureQueryEngine(dtd)
    engine.register_policy("nurse", nurse_spec(dtd), wardNo="2")
    document = hospital_document(seed=7, max_branch=4)
    return engine, "nurse", document, NURSE_QUERIES


def adex_setup():
    dtd = adex_dtd()
    engine = SecureQueryEngine(dtd)
    engine.register_policy("adex", adex_spec(dtd))
    document = adex_document(seed=1, buyers=12, ads=48)
    return engine, "adex", document, list(ADEX_QUERY_TEXTS.values())


WORKLOADS = {"hospital": hospital_setup, "adex": adex_setup}


class TestSeamFaults:
    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    @pytest.mark.parametrize("strategy", RETIRED_STRATEGIES)
    @pytest.mark.parametrize("site", sorted(SITES))
    def test_first_call_fault_is_graceful(self, workload, strategy, site):
        engine, policy, document, queries = WORKLOADS[workload]()
        baseline = run_workload(engine, policy, document, queries, strategy)

        engine, policy, document, queries = WORKLOADS[workload]()
        canary = engine.enable_canary(sample_rate=1.0)
        with FaultPlan(FaultSpec(site, at=1), name="chaos-%s" % site):
            chaotic = run_workload(engine, policy, document, queries, strategy)

        for query in queries:
            outcome = chaotic[query]
            if isinstance(outcome, str):
                # a typed error surfaced (a fault in projection fails
                # its query: no softer path exists)
                assert outcome == "E_FAULT"
            else:
                assert outcome == baseline[query]
        assert canary.violations == 0

    @pytest.mark.parametrize("site", ["materialize"])
    def test_rate_faults_replay_deterministically(self, site):
        def one_run():
            engine, policy, document, queries = hospital_setup()
            plan = FaultPlan(FaultSpec(site, rate=0.5, seed=99))
            with plan:
                outcomes = run_workload(engine, policy, document, queries)
            return outcomes, plan.fired()

        first, first_fired = one_run()
        second, second_fired = one_run()
        assert first == second
        assert first_fired == second_fired

    def test_latency_fault_with_deadline_still_terminates(self):
        engine, policy, document, queries = hospital_setup()
        options = ExecutionOptions(limits=QueryLimits(deadline_seconds=5.0))
        with FaultPlan(FaultSpec("materialize", kind="latency",
                                 latency_seconds=0.01, every=1)):
            result = engine.query(policy, queries[0], document, options=options)
        assert isinstance(result.results, list)


class TestSinkFaults:
    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    def test_faulty_sink_never_fails_queries(self, workload):
        engine, policy, document, queries = WORKLOADS[workload]()
        baseline = run_workload(engine, policy, document, queries)

        engine, policy, document, queries = WORKLOADS[workload]()
        faulty = engine.add_sink(FaultySink())
        ring = engine.add_sink(RingBufferSink(capacity=256))
        canary = engine.enable_canary(sample_rate=1.0)
        chaotic = run_workload(engine, policy, document, queries)

        assert chaotic == baseline
        assert canary.violations == 0
        # the pipeline swallowed every sink failure but kept counting
        assert faulty.raised == len(ring.events())
        assert engine.events.dropped == faulty.raised

    def test_faulty_sink_after_n_lets_early_events_through(self):
        engine, policy, document, queries = hospital_setup()
        sink = engine.add_sink(FaultySink(after=2))
        run_workload(engine, policy, document, queries)
        assert sink.emitted == 2
        assert sink.raised >= 1


class TestFaultsComposeWithGovernor:
    def test_fault_during_governed_query(self):
        engine, policy, document, queries = hospital_setup()
        options = ExecutionOptions(
            limits=QueryLimits(deadline_seconds=30.0, max_visits=10**9),
        )
        baseline = engine.query(policy, queries[0], document)
        with FaultPlan(FaultSpec("materialize", kind="latency",
                                 latency_seconds=0.01, every=1)):
            result = engine.query(policy, queries[0], document, options=options)
        assert [str(r) for r in result.results] == [
            str(r) for r in baseline.results
        ]

    def test_injected_error_is_typed(self):
        engine, policy, document, queries = hospital_setup()
        with FaultPlan(FaultSpec("materialize", at=1)):
            with pytest.raises(FaultInjected) as excinfo:
                engine.query(policy, queries[0], document)
        assert excinfo.value.code == "E_FAULT"
