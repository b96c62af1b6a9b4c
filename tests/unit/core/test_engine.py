"""Unit tests for the SecureQueryEngine facade (Fig. 3)."""

import pytest

from repro.errors import QueryRejectedError, SecurityError
from repro.core.engine import SecureQueryEngine
from repro.core.options import ExecutionOptions
from repro.workloads.hospital import (
    doctor_spec,
    hospital_document,
    hospital_dtd,
    nurse_spec,
)


@pytest.fixture()
def engine():
    dtd = hospital_dtd()
    built = SecureQueryEngine(dtd)
    built.register_policy("nurse", nurse_spec(dtd), wardNo="2")
    built.register_policy("doctor", doctor_spec(dtd))
    return built


@pytest.fixture()
def document():
    return hospital_document(seed=7, max_branch=4)


class TestPolicyAdministration:
    def test_policies_listed(self, engine):
        assert engine.policies() == ["doctor", "nurse"]

    def test_duplicate_policy_rejected(self, engine):
        with pytest.raises(SecurityError):
            engine.register_policy("nurse", nurse_spec(hospital_dtd()))

    def test_unbound_parameters_rejected(self):
        dtd = hospital_dtd()
        engine = SecureQueryEngine(dtd)
        with pytest.raises(SecurityError):
            engine.register_policy("nurse", nurse_spec(dtd))

    def test_foreign_dtd_rejected(self):
        from repro.core.spec import AccessSpec
        from repro.dtd.parser import parse_dtd

        other = parse_dtd("<!ELEMENT x (#PCDATA)>")
        engine = SecureQueryEngine(hospital_dtd())
        with pytest.raises(SecurityError):
            engine.register_policy("p", AccessSpec(other))

    def test_drop_policy(self, engine):
        engine.drop_policy("doctor")
        assert engine.policies() == ["nurse"]

    def test_unknown_policy_rejected(self, engine, document):
        with pytest.raises(SecurityError):
            engine.query("ghost", "//patient", document)


class TestViewExposure:
    def test_nurse_view_hides_confidential_labels(self, engine):
        text = engine.view_dtd_text("nurse")
        for secret in ("clinicalTrial", "trial", "regular"):
            assert secret not in text

    def test_doctor_view_hides_staff(self, engine):
        text = engine.view_dtd_text("doctor")
        assert "staffInfo" not in text
        assert "clinicalTrial" in text


class TestQuerying:
    def test_projected_results_are_view_shaped(self, engine, document):
        results = engine.query("nurse", "//treatment", document)
        assert results
        for element in results:
            assert element.label == "treatment"
            child_labels = {child.label for child in element.element_children()}
            assert child_labels <= {"dummy1", "dummy2"}

    def test_raw_results_opt_out(self, engine, document):
        # the 6.x raw opt-out is gone: the option does not exist, and
        # a wire payload that still carries it gets projected copies
        with pytest.raises(TypeError):
            ExecutionOptions(project=False)
        results = engine.query(
            "nurse",
            "//treatment",
            document,
            options=ExecutionOptions.from_dict({"project": False}),
        )
        assert results
        assert all(element.parent is None for element in results)

    def test_results_restricted_by_policy(self, engine, document):
        nurse_names = {
            element.string_value()
            for element in engine.query("nurse", "//patient/name", document)
        }
        doctor_names = {
            element.string_value()
            for element in engine.query("doctor", "//patient/name", document)
        }
        assert nurse_names <= doctor_names

    def test_hidden_labels_return_nothing(self, engine, document):
        assert engine.query("nurse", "//clinicalTrial", document) == []
        assert engine.query("doctor", "//staffInfo", document) == []

    def test_query_accepts_parsed_ast(self, engine, document):
        from repro.xpath.parser import parse_xpath

        parsed = parse_xpath("//patient/name")
        assert engine.query("nurse", parsed, document) == engine.query(
            "nurse", "//patient/name", document
        ) or len(engine.query("nurse", parsed, document)) == len(
            engine.query("nurse", "//patient/name", document)
        )

    def test_text_results_returned_as_strings(self, engine, document):
        results = engine.query("nurse", "//patient/name/text()", document)
        assert results and all(isinstance(value, str) for value in results)

    def test_optimize_toggle_preserves_results(self, engine, document):
        # the optimize toggle is retired: the option does not exist,
        # and a wire payload that still carries it runs the default
        with pytest.raises(TypeError):
            ExecutionOptions(optimize=False)
        default = engine.query("nurse", "//patient/name", document)
        retired = engine.query(
            "nurse",
            "//patient/name",
            document,
            options=ExecutionOptions.from_dict({"optimize": False}),
        )
        assert retired.report.cache_hit
        assert [str(n) for n in retired] == [str(n) for n in default]


class TestMaterializedStrategy:
    """The materialized view is no execution path (9.0): it is only
    the oracle, ``materialize()``, and the security canary keeps the
    views it checks against."""

    def test_strategies_agree(self, engine, document):
        from repro.core.materialize import materialize
        from repro.obs.canary import compare_answers, oracle_answers

        entry = engine._policy("nurse")
        view_tree = materialize(document, entry.view, entry.spec)
        for text in ("//patient/name", "//treatment", "//patient/name/text()"):
            via_rewrite = engine.query("nurse", text, document)
            expected = oracle_answers(text, view_tree)
            assert sum(expected.values()) == len(via_rewrite), text
            assert compare_answers(expected, via_rewrite) == (0, 0), text

    def test_materialized_view_cached(self, engine, document):
        canary = engine.enable_canary(sample_rate=1.0)
        entry = engine._policy("nurse")
        engine.query("nurse", "//patient", document)
        first = canary.oracle_view(entry, document)
        engine.query("nurse", "//treatment", document)
        # the checks shared one cached view tree
        assert canary.oracle_view(entry, document) is first
        assert canary.view_builds == 1 and canary.checks == 2

    def test_invalidate_drops_cache(self, engine, document):
        canary = engine.enable_canary(sample_rate=1.0)
        entry = engine._policy("nurse")
        engine.query("nurse", "//patient", document)
        first = canary.oracle_view(entry, document)
        engine.invalidate("nurse")
        assert engine.introspect()["canary_oracle_views"]["entries"] == 0
        engine.query("nurse", "//patient", document)
        assert canary.view_builds == 2
        assert canary.oracle_view(entry, document) is not first
        assert canary.violations == 0

    def test_unknown_strategy_rejected(self, engine, document):
        # no execution path is selectable: the keyword is gone
        for name in ("magic", "materialized", "virtual"):
            with pytest.raises(TypeError):
                ExecutionOptions(strategy=name)


class TestExplain:
    def test_report_fields(self, engine, document):
        report = engine.explain("nurse", "//patient//bill", document)
        assert "dept" in str(report.rewritten)
        assert report.result_count >= 0
        assert report.visits > 0
        assert report.policy == "nurse"
        assert "QueryReport" in repr(report)


class TestStrictMode:
    def test_labels_outside_view_rejected(self, document):
        dtd = hospital_dtd()
        engine = SecureQueryEngine(dtd, strict=True)
        engine.register_policy("nurse", nurse_spec(dtd), wardNo="2")
        with pytest.raises(QueryRejectedError):
            engine.query("nurse", "//clinicalTrial", document)
        # labels inside the view still work
        engine.query("nurse", "//patient", document)


class TestRecursivePolicies:
    def test_recursive_view_requires_document(self, recursive_dtd, recursive_spec):
        engine = SecureQueryEngine(recursive_dtd)
        engine.register_policy("rec", recursive_spec)
        with pytest.raises(SecurityError):
            engine.rewrite_query("rec", "//b")

    def test_recursive_query_roundtrip(self, recursive_dtd, recursive_spec):
        from repro.dtd.generator import DocumentGenerator

        engine = SecureQueryEngine(recursive_dtd)
        engine.register_policy("rec", recursive_spec)
        document = DocumentGenerator(
            recursive_dtd, seed=4, max_depth=10
        ).generate()
        results = engine.query("rec", "//b", document)
        assert all(element.label == "b" for element in results)
        # height-keyed rewriter caching: a second document of the same
        # height reuses the unfolded rewriter
        again = DocumentGenerator(
            recursive_dtd, seed=4, max_depth=10
        ).generate()
        assert len(engine.query("rec", "//b", again)) == len(results)


class TestColumnarStrategy:
    """The one execution path runs set-at-a-time over the cached
    columnar NodeTable.  8.x clients could spell it
    ``strategy="columnar"`` on the wire; the key is now ignored."""

    QUERIES = (
        "//patient/name",
        "//treatment",
        "//patient/name/text()",
        "//patient[name]",
        "(//patient/name | //treatment)",
    )

    def test_projected_answers_agree(self, engine, document):
        from repro.xmlmodel.serialize import serialize

        columnar = ExecutionOptions.from_dict({"strategy": "columnar"})
        for text in self.QUERIES:
            via_virtual = engine.query("nurse", text, document)
            via_columnar = engine.query(
                "nurse", text, document, options=columnar
            )
            assert [
                value if isinstance(value, str) else serialize(value)
                for value in via_columnar
            ] == [
                value if isinstance(value, str) else serialize(value)
                for value in via_virtual
            ], text

    def test_node_table_cached_per_document(self, engine, document):
        engine.query("nurse", "//patient", document)
        assert len(engine._stores) == 1
        (cached_document, table) = engine._stores[id(document)]
        assert cached_document is document
        engine.query("nurse", "//treatment", document)
        assert engine._stores[id(document)][1] is table

    def test_invalidate_drops_node_tables(self, engine, document):
        engine.query("nurse", "//patient", document)
        assert engine._stores
        engine.invalidate()
        assert not engine._stores

    def test_policy_scoped_invalidate_drops_node_tables(
        self, engine, document
    ):
        engine.query("nurse", "//patient", document)
        engine.invalidate("nurse")
        assert not engine._stores

    def test_explain_reports_columnar_alias_as_virtual(
        self, engine, document
    ):
        default = engine.explain("nurse", "//patient", document)
        report = engine.explain(
            "nurse",
            "//patient",
            document,
            options=ExecutionOptions.from_dict({"strategy": "columnar"}),
        )
        assert report.cache_hit  # the one path's plan-cache entry
        assert str(report.optimized) == str(default.optimized)
        assert "columnar" not in report.summary()
        assert "strategy" not in report.to_dict()


class TestOneBackendGuards:
    """Counted, not timed: the default path builds one NodeTable per
    document, never sorts through the interpreter, and never re-walks
    the view DTD for recursion on a warm query."""

    QUERIES = (
        "//patient/name",
        "//treatment",
        "//patient/name/text()",
        "(//patient/name | //treatment)",
    )

    def test_one_node_table_per_document(
        self, engine, document, monkeypatch
    ):
        import repro.xmlmodel.store as store_module
        import repro.xpath.evaluator as evaluator_module

        builds = []
        sorts = []
        table_class = store_module.NodeTable
        document_order = evaluator_module._document_order

        class CountingTable(table_class):
            def __init__(self, root):
                builds.append(root)
                super().__init__(root)

        def counting_order(results):
            sorts.append(len(results))
            return document_order(results)

        monkeypatch.setattr(store_module, "NodeTable", CountingTable)
        monkeypatch.setattr(
            evaluator_module, "_document_order", counting_order
        )
        other = hospital_document(seed=8, max_branch=4)
        for _ in range(3):
            for text in self.QUERIES:
                for target in (document, other):
                    engine.query("nurse", text, target)
                    engine.query("doctor", text, target)
        assert [id(root) for root in builds] == [id(document), id(other)]
        assert sorts == []

    def test_warm_queries_never_recompute_recursion(
        self, engine, document, monkeypatch
    ):
        from repro.core.view import SecurityView

        for text in self.QUERIES:  # register-time and cold work done
            engine.query("nurse", text, document)
        calls = []
        is_recursive = SecurityView.is_recursive

        def counting(view):
            calls.append(view)
            return is_recursive(view)

        monkeypatch.setattr(SecurityView, "is_recursive", counting)
        for _ in range(5):
            for text in self.QUERIES:
                assert engine.query("nurse", text, document).report.cache_hit
        assert calls == []
