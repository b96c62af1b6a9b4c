"""Columnar projection: the per-(policy, document) accessibility
column and the per-query :class:`Projector` built from it."""

import pytest

from repro.core.accessibility import compute_accessibility
from repro.core.derive import derive
from repro.core.engine import SecureQueryEngine
from repro.core.materialize import materialize, materialize_subtree
from repro.core.projection import (
    Projector,
    ViewProgram,
    accessibility_column,
)
from repro.errors import MaterializationAborted
from repro.workloads.hospital import (
    doctor_spec,
    hospital_document,
    hospital_dtd,
    nurse_spec,
)
from repro.xmlmodel.serialize import serialize
from repro.xmlmodel.store import NodeTable
from repro.xpath.evaluator import XPathEvaluator
from repro.xpath.parser import parse_xpath

QUERIES = (".", "//patient/name", "//staffInfo//*", "//patient//bill")


@pytest.fixture()
def document():
    return hospital_document(seed=7, max_branch=4)


@pytest.fixture()
def engine():
    dtd = hospital_dtd()
    built = SecureQueryEngine(dtd)
    built.register_policy("nurse", nurse_spec(dtd), wardNo="2")
    built.register_policy("doctor", doctor_spec(dtd))
    return built


def _answers(engine, policy, document):
    return [
        sorted(
            value if isinstance(value, str) else serialize(value)
            for value in engine.query(policy, text, document)
        )
        for text in QUERIES
    ]


def _oracle(spec, document):
    view_tree = materialize(document, derive(spec), spec)
    evaluator = XPathEvaluator()
    return [
        sorted(
            serialize(node) if node.is_element else node.value
            for node in evaluator.evaluate(parse_xpath(text), view_tree)
        )
        for text in QUERIES
    ]


class TestAccessibilityColumn:
    @pytest.mark.parametrize("policy", ["nurse", "doctor"])
    def test_equals_compute_accessibility(self, engine, document, policy):
        spec = engine._policy(policy).spec
        store = NodeTable(document)
        column = accessibility_column(store, spec)
        flags = compute_accessibility(document, spec)
        assert len(column) == store.size
        for row, node in enumerate(store.nodes):
            expected = flags[id(node)] if node.is_element else False
            assert column[row] == expected

    def test_conditional_annotation_hides_other_wards(self, document):
        spec = nurse_spec(hospital_dtd()).bind(wardNo="2")
        store = NodeTable(document)
        column = accessibility_column(store, spec)
        depts = store.posting("dept")
        # seed 7 carries both ward-2 departments and other ones
        assert {column[row] for row in depts} == {0, 1}

    def test_projector_matches_reference_subtrees(self, document):
        spec = nurse_spec(hospital_dtd()).bind(wardNo="2")
        view = derive(spec)
        store = NodeTable(document)
        projector = Projector(
            ViewProgram(view), store, accessibility_column(store, spec)
        )
        projected = 0
        for origin in document.iter_elements():
            if origin.label != "treatment":
                continue
            try:
                expected = serialize(
                    materialize_subtree(
                        document, view, spec, "treatment", origin
                    )
                )
            except MaterializationAborted:
                expected = None
            try:
                actual = serialize(projector.project("treatment", origin))
            except MaterializationAborted:
                actual = None
            assert actual == expected
            projected += expected is not None
        assert projected


class TestEngineColumns:
    def test_one_column_per_policy_and_document(self, engine, document):
        other = hospital_document(seed=8, max_branch=4)
        for _ in range(3):
            for target in (document, other):
                engine.query("nurse", "//patient/name", target)
                engine.query("doctor", "//patient/name", target)
        for name in ("nurse", "doctor"):
            columns = engine._policy(name).columns
            assert set(columns) == {id(document), id(other)}

    def test_text_only_queries_build_no_column(self, engine, document):
        engine.query("nurse", "//patient/name/text()", document)
        assert engine._policy("nurse").columns == {}

    def test_invalidate_drops_every_column(self, engine, document):
        engine.query("nurse", "//patient/name", document)
        engine.query("doctor", "//patient/name", document)
        engine.invalidate("nurse")  # drops every NodeTable, so every column
        assert engine._policy("nurse").columns == {}
        assert engine._policy("doctor").columns == {}
        before = _answers(engine, "nurse", document)
        assert engine._policy("nurse").columns
        assert _answers(engine, "nurse", document) == before

    def test_column_answers_only_for_its_node_table(self, engine, document):
        engine.query("nurse", "//patient/name", document)
        entry = engine._policy("nurse")
        old_store, old_column = entry.columns[id(document)]
        engine._stores.clear()  # a new NodeTable for the same document
        engine.query("nurse", "//patient/name", document)
        store, column = entry.columns[id(document)]
        assert store is not old_store and column is not old_column
        assert column == old_column

    def test_introspection_reports_columns(self, engine, document):
        assert engine.introspect()["accessibility_columns"] == {
            "entries": 0,
            "bytes": 0,
        }
        engine.query("nurse", "//patient/name", document)
        engine.query("doctor", "//patient/name", document)
        report = engine.introspect()
        columns = report["accessibility_columns"]
        rows = report["node_tables"]["rows"]
        assert columns == {"entries": 2, "bytes": 2 * rows}
        engine.invalidate()
        assert engine.introspect()["accessibility_columns"]["entries"] == 0


class TestReregistration:
    """A dropped and re-registered name answers under its new
    specification: its column is rebuilt, never carried over."""

    @pytest.mark.parametrize(
        "restrict",
        [
            # strictly less: only departments holding a ward-2 patient
            lambda spec: spec.annotate(
                "hospital", "dept", '[*/patient/wardNo = "2"]'
            ),
            # a spec whose column, not sigma, decides part of the
            # answer: the doctor's column hides the staff records the
            # nurse's view shows
            None,
        ],
        ids=["doctor-ward-2", "nurse"],
    )
    def test_new_spec_answers(self, document, restrict):
        dtd = hospital_dtd()
        engine = SecureQueryEngine(dtd)
        old = doctor_spec(dtd)
        engine.register_policy("clinician", old)
        old_answers = _answers(engine, "clinician", document)
        assert old_answers == _oracle(old, document)
        engine.drop_policy("clinician")
        if restrict is None:
            new = nurse_spec(dtd).bind(wardNo="2")
        else:
            new = doctor_spec(dtd)
            restrict(new)
        engine.register_policy("clinician", new)
        new_answers = _answers(engine, "clinician", document)
        assert new_answers == _oracle(new, document)
        assert new_answers != old_answers
