"""Counted, not timed: what projecting results through a view costs.

* accessibility is computed once per (policy, document): twenty
  projected Adex queries build one accessibility column and never
  call :func:`compute_accessibility` (before the column, every
  projected result ran that whole-document pass);
* a governed query checkpoints where docs/robustness.md says it does,
  pinned per call site; an ungoverned one mints no ``Budget``;
* ``max_visits`` bounds plan and projection visits together;
* a recursive policy's unfolding height comes from the NodeTable, so
  no query walks the document for it.
"""

import sys
from collections import Counter

import pytest

from repro.core.engine import SecureQueryEngine
from repro.core.options import ExecutionOptions
from repro.errors import BudgetExceeded
from repro.robustness import QueryLimits
from repro.robustness.governor import Budget
from repro.workloads.adex import adex_document, adex_dtd, adex_spec
from repro.workloads.catalog import catalog_document, catalog_engine
from repro.workloads.queries import ADEX_QUERY_TEXTS
from repro.xmlmodel.nodes import XMLElement

engine_module = sys.modules["repro.core.engine"]
accessibility_module = sys.modules["repro.core.accessibility"]
materialize_module = sys.modules["repro.core.materialize"]


@pytest.fixture()
def adex_engine():
    dtd = adex_dtd()
    engine = SecureQueryEngine(dtd)
    engine.register_policy("buyer", adex_spec(dtd))
    return engine


def _counting(monkeypatch, calls, name, owner, attribute):
    original = getattr(owner, attribute)

    def counted(*args, **kwargs):
        calls[name] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, attribute, counted)


class TestAccessibilityOncePerPolicyAndDocument:
    def test_twenty_queries_build_one_column(self, adex_engine, monkeypatch):
        document = adex_document(seed=0)
        calls = Counter()
        _counting(
            monkeypatch, calls, "columns", engine_module, "accessibility_column"
        )
        for owner in (accessibility_module, materialize_module):
            _counting(
                monkeypatch, calls, "passes", owner, "compute_accessibility"
            )
        results = 0
        for _ in range(5):
            for text in ADEX_QUERY_TEXTS.values():
                results += len(adex_engine.query("buyer", text, document))
        assert results > 20  # every query projects element results
        assert calls == {"columns": 1}

    def test_each_policy_and_document_builds_its_own(
        self, adex_engine, monkeypatch
    ):
        adex_engine.register_policy("everyone", adex_spec(adex_dtd()))
        documents = [adex_document(seed=0), adex_document(seed=1)]
        calls = Counter()
        _counting(
            monkeypatch, calls, "columns", engine_module, "accessibility_column"
        )
        for _ in range(3):
            for document in documents:
                for policy in ("buyer", "everyone"):
                    adex_engine.query(policy, ADEX_QUERY_TEXTS["Q1"], document)
        assert calls == {"columns": 4}


class TestGovernedProjectionCheckpoints:
    """A governed Adex Q3 (50 results): one checkpoint after compile,
    one per plan operator batch, one strided tick, and one per
    interpreter dispatch of projection's sigma evaluation."""

    EXPECTED = {
        ("engine.py", "_execute"): 1,
        ("plan.py", "run_rows"): 2,
        ("evaluator.py", "_eval"): 550,
        ("governor.py", "tick"): 1,
    }

    def test_checkpoints_per_site(self, adex_engine, monkeypatch):
        document = adex_document(seed=0)
        sites = Counter()
        checkpoint = Budget.checkpoint

        def counted(budget, *args, **kwargs):
            caller = sys._getframe(1).f_code
            sites[(caller.co_filename.rsplit("/", 1)[-1], caller.co_name)] += 1
            return checkpoint(budget, *args, **kwargs)

        monkeypatch.setattr(Budget, "checkpoint", counted)
        options = ExecutionOptions(limits=QueryLimits(max_visits=10**9))
        for _ in range(2):  # cold, then warm
            sites.clear()
            result = adex_engine.query(
                "buyer", ADEX_QUERY_TEXTS["Q3"], document, options=options
            )
            assert len(result) == 50
            assert dict(sites) == self.EXPECTED

    def test_ungoverned_query_mints_no_budget(self, adex_engine, monkeypatch):
        document = adex_document(seed=0)
        calls = Counter()
        _counting(monkeypatch, calls, "budgets", Budget, "__init__")
        _counting(monkeypatch, calls, "checkpoints", Budget, "checkpoint")
        _counting(monkeypatch, calls, "ticks", Budget, "tick")
        for _ in range(2):
            adex_engine.query("buyer", ADEX_QUERY_TEXTS["Q3"], document)
        assert calls == {}


class TestVisitsBoundTheWholeQuery:
    """``max_visits`` bounds plans and projection together, and
    ``report.visits`` counts both: buyer ``//buyer-info/contact-info``
    on ``adex_document(seed=0)`` makes 102 plan visits and 1,000 in
    projection's sigma evaluation for its 50 results.  Before the
    projector continued the plans' count, the query reported 102 and
    answered in full under ``max_visits=107``."""

    QUERY = "//buyer-info/contact-info"

    def test_report_counts_plan_and_projection_visits(self, adex_engine):
        document = adex_document(seed=0)
        for _ in range(2):  # cold, then warm
            result = adex_engine.query("buyer", self.QUERY, document)
            assert len(result) == 50
            assert result.report.visits == 1102

    @pytest.mark.parametrize("bound", [107, 1101])
    def test_governed_query_raises_budget(self, adex_engine, bound):
        document = adex_document(seed=0)
        options = ExecutionOptions(limits=QueryLimits(max_visits=bound))
        with pytest.raises(BudgetExceeded) as excinfo:
            adex_engine.query("buyer", self.QUERY, document, options=options)
        assert excinfo.value.code == "E_BUDGET"
        assert excinfo.value.dimension == "visits"
        assert excinfo.value.spent > bound

    def test_exact_bound_answers(self, adex_engine):
        document = adex_document(seed=0)
        options = ExecutionOptions(limits=QueryLimits(max_visits=1102))
        result = adex_engine.query(
            "buyer", self.QUERY, document, options=options
        )
        assert len(result) == 50 and result.report.visits == 1102

    def test_ungoverned_query_mints_no_budget(self, adex_engine, monkeypatch):
        document = adex_document(seed=0)
        calls = Counter()
        _counting(monkeypatch, calls, "budgets", Budget, "__init__")
        for _ in range(2):
            adex_engine.query("buyer", self.QUERY, document)
        assert calls == {}


class TestRecursiveHeight:
    def test_queries_never_walk_the_document_for_height(self, monkeypatch):
        engine = catalog_engine()
        document = catalog_document(seed=3, max_depth=12, max_branch=3)
        calls = Counter()
        _counting(monkeypatch, calls, "height", XMLElement, "height")
        cold = engine.query("flat", "//assembly/part", document)
        warm = engine.query("flat", "//assembly/part", document)
        assert warm.report.cache_hit and len(warm) == len(cold) > 0
        assert calls == {}

    def test_node_table_height_is_the_element_height(self):
        from repro.xmlmodel.parser import parse_document
        from repro.xmlmodel.store import NodeTable

        for seed in range(5):
            document = catalog_document(seed=seed, max_depth=10)
            assert NodeTable(document).height == document.height()
        assert NodeTable(parse_document("<r>text</r>")).height == 1
