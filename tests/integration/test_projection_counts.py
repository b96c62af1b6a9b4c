"""Counted, not timed: what projecting results through a view costs.

* accessibility is computed once per (policy, document): twenty
  projected Adex queries build one accessibility column and never
  call :func:`compute_accessibility` (before the column, every
  projected result ran that whole-document pass);
* a view's expansion is compiled once per view: one
  :class:`~repro.core.projection.ViewProgram` per policy (per unfolded
  height for a recursive one), and projected results make no call to
  the reference interpreter's ``evaluate`` (before the program, each
  one evaluated every sigma edge and ``str`` rule it expanded);
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
from repro.workloads.hospital import hospital_document, hospital_dtd, nurse_spec
from repro.workloads.queries import ADEX_QUERY_TEXTS
from repro.xmlmodel.nodes import XMLElement
from repro.xmlmodel.store import NodeTable

engine_module = sys.modules["repro.core.engine"]
accessibility_module = sys.modules["repro.core.accessibility"]
materialize_module = sys.modules["repro.core.materialize"]
# the module: ``repro.xpath`` re-exports names from it
evaluator_module = sys.modules["repro.xpath.evaluator"]


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


class TestCompiledViewExpansion:
    def test_projected_results_never_call_the_interpreter(
        self, adex_engine, monkeypatch
    ):
        """Twenty projected Adex queries, then nurse queries whose view
        has union and qualified sigma edges (compiled plans)."""
        calls = Counter()
        _counting(
            monkeypatch,
            calls,
            "evaluate",
            evaluator_module.XPathEvaluator,
            "evaluate",
        )
        document = adex_document(seed=0)
        results = 0
        for _ in range(5):
            for text in ADEX_QUERY_TEXTS.values():
                results += len(adex_engine.query("buyer", text, document))
        dtd = hospital_dtd()
        engine = SecureQueryEngine(dtd)
        engine.register_policy("nurse", nurse_spec(dtd), wardNo="2")
        hospital = hospital_document(seed=7, max_branch=4)
        for text in ("/hospital", "//dept", "//patient", "//staff"):
            results += len(engine.query("nurse", text, hospital))
        assert results > 100
        assert calls == {}

    def test_one_program_per_view(self, adex_engine, monkeypatch):
        adex_engine.register_policy("everyone", adex_spec(adex_dtd()))
        calls = Counter()
        _counting(monkeypatch, calls, "programs", engine_module, "ViewProgram")
        documents = [adex_document(seed=0), adex_document(seed=1)]
        for _ in range(3):
            for document in documents:
                for policy in ("buyer", "everyone"):
                    for text in ADEX_QUERY_TEXTS.values():
                        adex_engine.query(policy, text, document)
        assert calls == {"programs": 2}

    def test_one_program_per_unfolded_height(self, monkeypatch):
        engine = catalog_engine()
        calls = Counter()
        _counting(monkeypatch, calls, "programs", engine_module, "ViewProgram")
        # seeds 0, 3 and 4 have height 7, seed 5 height 3
        documents = [
            catalog_document(seed=seed, max_depth=8, max_branch=3)
            for seed in (0, 3, 4, 5)
        ]
        heights = {NodeTable(document).height for document in documents}
        assert heights == {3, 7}
        for _ in range(2):
            for document in documents:
                for text in ("//assembly", "//assembly/part", "/catalog"):
                    assert engine.query("flat", text, document)
        assert calls == {"programs": len(heights)}
        assert set(engine._policy("flat").programs) == heights


def _checkpoint_sites(monkeypatch, engine, policy, text, document, size):
    """``Budget.checkpoint`` calls per (file, function) of a generously
    governed query, cold and then warm (both must agree)."""
    sites = Counter()
    checkpoint = Budget.checkpoint

    def counted(budget, *args, **kwargs):
        caller = sys._getframe(1).f_code
        sites[(caller.co_filename.rsplit("/", 1)[-1], caller.co_name)] += 1
        return checkpoint(budget, *args, **kwargs)

    monkeypatch.setattr(Budget, "checkpoint", counted)
    options = ExecutionOptions(limits=QueryLimits(max_visits=10**9))
    seen = []
    for _ in range(2):  # cold, then warm
        sites.clear()
        result = engine.query(policy, text, document, options=options)
        assert len(result) == size
        seen.append(dict(sites))
    assert seen[0] == seen[1]
    return seen[0]


class TestGovernedProjectionCheckpoints:
    """Governed queries checkpoint once after compile, once per plan
    operator batch (the query's plans and projection's compiled sigma
    edges alike) and once per strided tick; the interpreter takes no
    part (a governed Adex Q3 made 550 interpreter checkpoints before
    the view was compiled)."""

    def test_checkpoints_per_site(self, adex_engine, monkeypatch):
        """Adex Q3 (50 results) projects through single-label sigma
        edges only, which are direct child walks."""
        sites = _checkpoint_sites(
            monkeypatch,
            adex_engine,
            "buyer",
            ADEX_QUERY_TEXTS["Q3"],
            adex_document(seed=0),
            50,
        )
        assert sites == {
            ("engine.py", "_execute"): 1,
            ("plan.py", "run_rows"): 2,
            ("governor.py", "tick"): 1,
        }

    def test_compiled_sigma_edges_checkpoint_per_operator(self, monkeypatch):
        """Nurse ``/hospital`` projects the whole view, whose
        ``dept[...]`` and union sigma edges run 11 plan operator
        batches beside the query's own 1."""
        dtd = hospital_dtd()
        engine = SecureQueryEngine(dtd)
        engine.register_policy("nurse", nurse_spec(dtd), wardNo="2")
        sites = _checkpoint_sites(
            monkeypatch,
            engine,
            "nurse",
            "/hospital",
            hospital_document(seed=7, max_branch=4),
            1,
        )
        assert sites == {
            ("engine.py", "_execute"): 1,
            ("plan.py", "run_rows"): 12,
        }

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
    projection's child walks for its 50 results (20 rows scanned per
    result, as many as the interpreter touched before the view was
    compiled).  Before the projector continued the plans' count, the
    query reported 102 and answered in full under
    ``max_visits=107``."""

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
