"""Property tests of columnar projection: the accessibility column
the engine keeps per (policy, document) equals the reference
:func:`compute_accessibility` on every element, and a
:class:`Projector` built from it projects exactly what the reference
materializer does, under random specifications with conditional
``[q]`` annotations."""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.accessibility import compute_accessibility
from repro.core.derive import derive
from repro.core.engine import SecureQueryEngine
from repro.core.materialize import materialize, materialize_subtree
from repro.core.projection import Projector, accessibility_column
from repro.dtd.generator import DocumentGenerator
from repro.errors import MaterializationAborted
from repro.workloads.catalog import catalog_document, catalog_dtd, flat_spec
from repro.xmlmodel.serialize import serialize
from repro.xmlmodel.store import NodeTable
from repro.xpath.evaluator import XPathEvaluator

from tests.property.strategies import (
    conditional_annotation_strategy,
    dag_dtd_strategy,
    path_strategy,
)


def _assert_column_matches(document, spec):
    store = NodeTable(document)
    column = accessibility_column(store, spec)
    expected = compute_accessibility(document, spec)
    elements = 0
    for row, node in enumerate(store.nodes):
        if node.is_element:
            elements += 1
            assert column[row] == expected[id(node)], (row, node.label)
    assert elements == len(expected)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_column_matches_compute_accessibility_on_dag_dtds(data):
    dtd = data.draw(dag_dtd_strategy())
    spec = data.draw(conditional_annotation_strategy(dtd))
    seed = data.draw(st.integers(0, 1000))
    document = DocumentGenerator(dtd, seed=seed, max_branch=3).generate()
    _assert_column_matches(document, spec)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_column_matches_compute_accessibility_on_the_catalog(data):
    dtd = catalog_dtd()
    spec = data.draw(
        st.one_of(st.just(flat_spec(dtd)), conditional_annotation_strategy(dtd))
    )
    document = catalog_document(
        seed=data.draw(st.integers(0, 1000)), max_depth=8, max_branch=3
    )
    _assert_column_matches(document, spec)


def _projection(call):
    try:
        return serialize(call())
    except MaterializationAborted:
        return "aborted"


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_projector_matches_the_reference_materializer(data):
    """Every (view node, document origin) pair of matching label
    projects to the same subtree, or aborts on both paths."""
    dtd = data.draw(dag_dtd_strategy())
    spec = data.draw(conditional_annotation_strategy(dtd))
    seed = data.draw(st.integers(0, 1000))
    document = DocumentGenerator(dtd, seed=seed, max_branch=3).generate()
    view = derive(spec)
    store = NodeTable(document)
    projector = Projector(store, accessibility_column(store, spec), view)
    keys = [key for key, node in view.nodes.items() if not node.is_dummy]
    for origin in document.iter_elements():
        for key in keys:
            if view.node(key).label != origin.label:
                continue
            expected = _projection(
                lambda: materialize_subtree(document, view, spec, key, origin)
            )
            actual = _projection(
                lambda: materialize_subtree(
                    document, view, spec, key, origin, projector=projector
                )
            )
            assert actual == expected, (key, origin.label)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_engine_answers_equal_the_oracle_under_conditional_specs(data):
    """``p(Tv) == rewrite(p)(T)`` projected, for random conditional
    specs whose view materializes without aborting."""
    dtd = data.draw(dag_dtd_strategy())
    spec = data.draw(conditional_annotation_strategy(dtd))
    seed = data.draw(st.integers(0, 1000))
    document = DocumentGenerator(dtd, seed=seed, max_branch=3).generate()
    view = derive(spec)
    try:
        view_tree = materialize(document, view, spec)
    except MaterializationAborted:
        assume(False)
    query = data.draw(path_strategy(labels=tuple(view.labels()), max_leaves=5))
    engine = SecureQueryEngine(dtd)
    engine.register_policy("p", spec)
    expected = sorted(
        serialize(node) if node.is_element else node.value
        for node in XPathEvaluator().evaluate(query, view_tree)
    )
    actual = sorted(
        value if isinstance(value, str) else serialize(value)
        for value in engine.query("p", query, document)
    )
    assert actual == expected
