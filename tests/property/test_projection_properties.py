"""Property tests of columnar projection: the accessibility column
the engine keeps per (policy, document) equals the reference
:func:`compute_accessibility` on every element, and a
:class:`Projector` running a compiled :class:`ViewProgram` over it
projects exactly what the reference materializer does, on derived
views of random specifications with conditional ``[q]`` annotations
and on random views whose sigma paths range over the fragment."""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.accessibility import compute_accessibility
from repro.core.derive import derive
from repro.core.engine import SecureQueryEngine
from repro.core.materialize import materialize, materialize_subtree
from repro.core.projection import (
    Projector,
    ViewProgram,
    accessibility_column,
)
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
    view_strategy,
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
    except MaterializationAborted as aborted:
        return "aborted: %s" % aborted


def _assert_program_matches_the_oracle(document, view, spec):
    """Every (view node, document element) pair, dummies included,
    projects to the same subtree through the compiled program as
    through the reference materializer, or aborts on both with the
    same message."""
    store = NodeTable(document)
    projector = Projector(
        ViewProgram(view), store, accessibility_column(store, spec)
    )
    for origin in document.iter_elements():
        for key in view.nodes:
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
def test_projector_matches_the_reference_materializer(data):
    """Derived views of random conditional specs: dummies, choices,
    starred seq items and ``[q]`` annotations."""
    dtd = data.draw(dag_dtd_strategy())
    spec = data.draw(conditional_annotation_strategy(dtd))
    seed = data.draw(st.integers(0, 1000))
    document = DocumentGenerator(dtd, seed=seed, max_branch=3).generate()
    _assert_program_matches_the_oracle(document, derive(spec), spec)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_program_matches_the_oracle_on_random_views(data):
    """Views built directly, whose sigma paths use ``//``, unions,
    qualifiers and wildcards, compiled into plans; unsupported
    productions and missing sigma(str) abort on both sides."""
    dtd = data.draw(dag_dtd_strategy())
    spec = data.draw(conditional_annotation_strategy(dtd))
    view = data.draw(view_strategy(dtd))
    seed = data.draw(st.integers(0, 1000))
    document = DocumentGenerator(dtd, seed=seed, max_branch=3).generate()
    _assert_program_matches_the_oracle(document, view, spec)


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
