"""Properties of the resource governor and input hardening.

The headline property: for random documents and random (often
pathological) fragment-``C`` queries, a *governed* query always
terminates promptly — it either answers or raises a typed
:class:`~repro.errors.ReproError` — and never hangs or escapes with an
untyped exception.  Supporting properties pin the governor's checkpoint
priority order, the deterministic fault triggers, and the parser depth
limits against generated inputs.
"""

import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.options import ExecutionOptions
from repro.errors import (
    BudgetExceeded,
    ReproError,
    XMLLimitError,
)
from repro.robustness import Budget, FaultSpec, QueryLimits
from repro.workloads.hospital import hospital_document, nurse_engine
from repro.xmlmodel.parser import parse_document
from repro.xmlmodel.serialize import serialize

from tests.property.strategies import path_strategy

#: The nurse view's label pool plus document-only and unknown labels,
#: so generated queries include denied and nonsensical steps too.
HOSPITAL_LABELS = (
    "hospital", "dept", "patient", "patientInfo", "name", "wardNo",
    "treatment", "dummy1", "dummy2", "bill", "medication", "trial",
    "clinicalTrial", "nosuchlabel",
)

ENGINE = nurse_engine()
DOCUMENTS = [hospital_document(seed=seed, max_branch=4) for seed in (0, 7)]

GOVERNED = QueryLimits(
    deadline_seconds=2.0,
    max_results=50_000,
    max_visits=500_000,
    max_frontier_rows=500_000,
)

#: Generous wall-clock ceiling: a governed query that takes longer than
#: this has escaped cooperative cancellation (i.e. would hang).
CEILING_SECONDS = 20.0


class TestGovernedQueriesTerminate:
    @settings(max_examples=40, deadline=None)
    @given(
        path=path_strategy(labels=HOSPITAL_LABELS, max_leaves=10),
        doc_index=st.integers(min_value=0, max_value=len(DOCUMENTS) - 1),
    )
    def test_answers_or_raises_typed_error_promptly(self, path, doc_index):
        options = ExecutionOptions(limits=GOVERNED)
        started = time.perf_counter()
        try:
            result = ENGINE.query(
                "nurse", path, DOCUMENTS[doc_index], options=options
            )
        except ReproError as error:
            assert isinstance(error.code, str) and error.code.startswith("E_")
        else:
            assert isinstance(result.results, list)
        assert time.perf_counter() - started < CEILING_SECONDS

    @settings(max_examples=15, deadline=None)
    @given(path=path_strategy(labels=HOSPITAL_LABELS, max_leaves=8))
    def test_governed_answer_equals_ungoverned_answer(self, path):
        document = DOCUMENTS[0]
        try:
            baseline = ENGINE.query("nurse", path, document)
        except ReproError as error:
            baseline = error.code
        try:
            governed = ENGINE.query(
                "nurse",
                path,
                document,
                options=ExecutionOptions(limits=GOVERNED),
            )
        except ReproError as error:
            governed = error.code
        if isinstance(baseline, str) or isinstance(governed, str):
            assert baseline == governed
        else:
            assert [str(r) for r in governed.results] == [
                str(r) for r in baseline.results
            ]


class TestCheckpointProperties:
    @settings(max_examples=100, deadline=None)
    @given(
        max_visits=st.one_of(st.none(), st.integers(1, 100)),
        max_frontier=st.one_of(st.none(), st.integers(1, 100)),
        visits=st.integers(0, 200),
        frontier=st.integers(0, 200),
    )
    def test_checkpoint_raises_iff_a_bound_is_exceeded(
        self, max_visits, max_frontier, visits, frontier
    ):
        budget = Budget(
            QueryLimits(max_visits=max_visits, max_frontier_rows=max_frontier),
            clock=lambda: 0.0,
        )
        frontier_hit = max_frontier is not None and frontier > max_frontier
        visits_hit = max_visits is not None and visits > max_visits
        if not (frontier_hit or visits_hit):
            budget.checkpoint(visits=visits, frontier=frontier)
            return
        with pytest.raises(BudgetExceeded) as excinfo:
            budget.checkpoint(visits=visits, frontier=frontier)
        # priority order: frontier outranks visits
        expected = "frontier" if frontier_hit else "visits"
        assert excinfo.value.dimension == expected

    @settings(max_examples=50, deadline=None)
    @given(
        results=st.integers(0, 1000),
        bound=st.integers(1, 1000),
    )
    def test_charge_results_threshold(self, results, bound):
        budget = Budget(QueryLimits(max_results=bound), clock=lambda: 0.0)
        if results <= bound:
            budget.charge_results(results)
        else:
            with pytest.raises(BudgetExceeded):
                budget.charge_results(results)


class TestFaultTriggerProperties:
    @settings(max_examples=50, deadline=None)
    @given(every=st.integers(1, 20), calls=st.integers(0, 200))
    def test_every_n_fires_floor_calls_over_n(self, every, calls):
        spec = FaultSpec("materialize", every=every)
        fired = sum(spec.triggered(i) for i in range(1, calls + 1))
        assert fired == calls // every

    @settings(max_examples=50, deadline=None)
    @given(at=st.integers(1, 50), calls=st.integers(0, 100))
    def test_at_n_fires_at_most_once(self, at, calls):
        spec = FaultSpec("materialize", at=at)
        fired = sum(spec.triggered(i) for i in range(1, calls + 1))
        assert fired == (1 if calls >= at else 0)


class TestParserLimitProperties:
    @settings(max_examples=40, deadline=None)
    @given(depth=st.integers(1, 400), limit=st.integers(1, 400))
    def test_depth_limit_is_exact(self, depth, limit):
        text = "<d>" * depth + "x" + "</d>" * depth
        if depth <= limit:
            root = parse_document(text, max_depth=limit)
            assert serialize(root) == text
        else:
            with pytest.raises(XMLLimitError):
                parse_document(text, max_depth=limit)

    @settings(max_examples=30, deadline=None)
    @given(width=st.integers(1, 500), limit=st.integers(1, 500))
    def test_width_never_trips_the_depth_limit(self, width, limit):
        text = "<r>" + "<c/>" * width + "</r>"
        root = parse_document(text, max_depth=max(limit, 2))
        assert len(root.children) == width
