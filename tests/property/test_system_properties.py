"""Property-based tests of the end-to-end system invariants:

* generated documents always conform to their DTD;
* accessibility labeling matches an independent reference
  implementation of the Section 3.2 semantics;
* for random Y/N specifications over random DAG DTDs, the derived view
  is *sound and complete*: the materialized view carries exactly the
  accessible elements (Theorem 3.2);
* query rewriting is equivalent to querying the materialized view
  (Theorem 4.1), and optimization preserves answers.
"""

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.accessibility import compute_accessibility
from repro.core.derive import derive
from repro.core.engine import SecureQueryEngine
from repro.core.materialize import materialize
from repro.core.optimize import Optimizer
from repro.core.spec import ANN_N, ANN_Y
from repro.dtd.generator import DocumentGenerator
from repro.dtd.validate import conforms
from repro.workloads.hospital import hospital_document, hospital_dtd, nurse_spec
from repro.xmlmodel.serialize import serialize
from repro.xpath.evaluator import XPathEvaluator

from tests.property.strategies import (
    annotation_strategy,
    dag_dtd_strategy,
    path_strategy,
)


@settings(max_examples=60, deadline=None)
@given(dag_dtd_strategy(), st.integers(0, 10_000))
def test_generator_conformance(dtd, seed):
    document = DocumentGenerator(dtd, seed=seed, max_branch=3).generate()
    assert conforms(document, dtd)


def reference_accessibility(element, spec, parent_accessible, conditions_ok, out):
    """Literal transcription of the Section 3.2 definition, independent
    of the production implementation."""
    from repro.core.spec import CondAnnotation
    from repro.xpath.evaluator import evaluate_qualifier

    for child in element.children:
        if not child.is_element:
            continue
        annotation = spec.ann(element.label, child.label)
        child_conditions = conditions_ok
        if annotation is ANN_Y:
            accessible = conditions_ok
        elif annotation is ANN_N:
            accessible = False
        elif isinstance(annotation, CondAnnotation):
            holds = evaluate_qualifier(annotation.qualifier, child)
            child_conditions = conditions_ok and holds
            accessible = child_conditions
        else:
            accessible = parent_accessible
        out[id(child)] = accessible
        reference_accessibility(child, spec, accessible, child_conditions, out)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_accessibility_matches_reference(data):
    dtd = data.draw(dag_dtd_strategy())
    spec = data.draw(annotation_strategy(dtd))
    seed = data.draw(st.integers(0, 1000))
    document = DocumentGenerator(dtd, seed=seed, max_branch=3).generate()
    expected = {id(document): True}
    reference_accessibility(document, spec, True, True, expected)
    assert compute_accessibility(document, spec) == expected


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_view_soundness_and_completeness(data):
    """Theorem 3.2 for Y/N specs: the materialized view holds all and
    only the accessible elements (compared per label as multisets;
    dummies are structural and excluded)."""
    dtd = data.draw(dag_dtd_strategy())
    spec = data.draw(annotation_strategy(dtd))
    seed = data.draw(st.integers(0, 1000))
    document = DocumentGenerator(dtd, seed=seed, max_branch=3).generate()
    view = derive(spec)
    view_tree = materialize(document, view, spec)
    flags = compute_accessibility(document, spec)
    accessible = Counter(
        node.label
        for node in document.iter_elements()
        if flags[id(node)]
    )
    view_labels = Counter(
        node.label
        for node in view_tree.iter_elements()
        if not _is_dummy(view, node.label)
    )
    assert view_labels == accessible


def _is_dummy(view, label):
    for node in view.nodes.values():
        if node.label == label:
            return node.is_dummy
    return False


@settings(max_examples=50, deadline=None)
@given(
    path_strategy(
        labels=(
            "dept",
            "patientInfo",
            "patient",
            "name",
            "wardNo",
            "treatment",
            "dummy1",
            "dummy2",
            "bill",
            "medication",
            "staffInfo",
            "staff",
        ),
        max_leaves=6,
    ),
    st.sampled_from([0, 7, 13]),
)
def test_rewrite_equivalence_random_queries(query, seed):
    """Random view queries answer identically over the materialized
    view and via rewriting (+ optimization) over the document."""
    dtd = hospital_dtd()
    spec = nurse_spec(dtd).bind(wardNo="2")
    view = derive(spec)
    document = hospital_document(seed=seed, max_branch=3)
    view_tree = materialize(document, view, spec)
    engine = SecureQueryEngine(dtd)
    engine.register_policy("nurse", spec)
    evaluator = XPathEvaluator()
    expected = sorted(
        serialize(node) if node.is_element else node.value
        for node in evaluator.evaluate(query, view_tree)
    )
    actual = sorted(
        value if isinstance(value, str) else serialize(value)
        for value in engine.query("nurse", query, document)
    )
    assert expected == actual


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_no_label_leakage_random_policies_and_queries(data):
    """The universal security property: whatever the policy and the
    query (including probes for hidden labels), projected results only
    ever contain view labels."""
    dtd = data.draw(dag_dtd_strategy())
    spec = data.draw(annotation_strategy(dtd))
    seed = data.draw(st.integers(0, 500))
    document = DocumentGenerator(dtd, seed=seed, max_branch=3).generate()
    query = data.draw(
        path_strategy(labels=tuple(dtd.element_types), max_leaves=5)
    )
    engine = SecureQueryEngine(dtd)
    engine.register_policy("p", spec)
    view = engine._policies["p"].view
    allowed = view.labels()
    for result in engine.query("p", query, document):
        if isinstance(result, str):
            continue
        labels_seen = {element.label for element in result.iter_elements()}
        assert labels_seen <= allowed


@settings(max_examples=60, deadline=None)
@given(
    path_strategy(
        labels=(
            "dept",
            "clinicalTrial",
            "patientInfo",
            "patient",
            "treatment",
            "trial",
            "regular",
            "bill",
            "staffInfo",
        ),
        max_leaves=6,
    ),
    st.sampled_from([3, 11]),
)
def test_optimize_equivalence_random_queries(query, seed):
    """optimize() preserves the answer of arbitrary document queries."""
    dtd = hospital_dtd()
    optimizer = Optimizer(dtd)
    document = hospital_document(seed=seed, max_branch=3)
    evaluator = XPathEvaluator()
    optimized = optimizer.optimize(query)
    expected = sorted(id(n) for n in evaluator.evaluate(query, document))
    actual = sorted(id(n) for n in evaluator.evaluate(optimized, document))
    assert expected == actual
