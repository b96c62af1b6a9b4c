"""The columnar (set-at-a-time) plan backend must be a drop-in
equivalent of the object-tree interpreter: identical result lists —
content *and* document order — for every fragment-``C`` construct, at
the root and at arbitrary inner context nodes, with graceful fallback
to the interpreter for contexts outside the store's tree."""

import pytest

from repro.workloads.hospital import hospital_document
from repro.xmlmodel.nodes import new_document
from repro.xmlmodel.store import build_node_table
from repro.xpath.evaluator import XPathEvaluator
from repro.xpath.parser import parse_xpath
from repro.xpath.plan import PlanRuntime, compile_path

QUERIES = [
    ".",
    "0",
    "*",
    "text()",
    "..",
    "//patient",
    "/hospital/dept",
    "/hospital//dept//patient",
    "//dept/patientInfo/patient/name",
    "//patient/name/text()",
    "//patient[wardNo]",
    '//patient[wardNo = "2"]/name',
    "//treatment//medication",
    "(//patient/name | //staffInfo/name)",
    "//dept[*//bill]//patient",
    "//patient[not(wardNo) or name]",
    "//patient/..",
    "//patient[name and wardNo]",
    "//*",
    "//patient/*",
    "//name/../wardNo",
    "(//patient | //patient/name | 0)",
    "//dept[.//patient//text() = 'no-such-text']",
]


@pytest.fixture(scope="module")
def document():
    return hospital_document(seed=11, max_branch=4)


@pytest.fixture(scope="module")
def store(document):
    return build_node_table(document)


def _interpreter(query, contexts, ordered=True):
    return XPathEvaluator().evaluate(query, contexts, ordered=ordered)


@pytest.mark.parametrize("text", QUERIES)
def test_columnar_matches_interpreter_at_root(document, store, text):
    query = parse_xpath(text)
    expected = _interpreter(query, document)
    actual = compile_path(query).execute(
        document, runtime=PlanRuntime(store=store)
    )
    assert [id(node) for node in actual] == [id(node) for node in expected]


@pytest.mark.parametrize("text", QUERIES)
def test_columnar_matches_interpreter_at_inner_contexts(
    document, store, text
):
    contexts = document.find_all("dept") + document.find_all("patient")
    assert contexts, "workload document must contain depts and patients"
    query = parse_xpath(text)
    expected = _interpreter(query, list(contexts))
    actual = compile_path(query).execute(
        list(contexts), runtime=PlanRuntime(store=store)
    )
    assert [id(node) for node in actual] == [id(node) for node in expected]


def test_columnar_results_are_document_nodes(document, store):
    plan = compile_path(parse_xpath("//patient"))
    results = plan.execute(document, store=store)
    originals = {id(node) for node in document.iter()}
    assert results
    assert all(id(node) in originals for node in results)


def test_columnar_results_come_back_sorted_without_order_flag(
    document, store
):
    """Row frontiers are inherently in document order, so executions
    return document order with no sorting flag — pinned so callers can
    rely on it."""
    plan = compile_path(parse_xpath("(//name | //patient)"))
    results = plan.execute(document, store=store)
    position = {id(node): i for i, node in enumerate(document.iter())}
    ranks = [position[id(node)] for node in results]
    assert ranks == sorted(ranks)


def test_foreign_context_falls_back_to_interpreter(document, store):
    other = hospital_document(seed=99, max_branch=3)
    plan = compile_path(parse_xpath("//patient"))
    expected = _interpreter(parse_xpath("//patient"), other)
    actual = plan.execute(other, runtime=PlanRuntime(store=store))
    assert [id(node) for node in actual] == [id(node) for node in expected]


def test_mixed_foreign_and_covered_contexts_fall_back(document, store):
    other = new_document("hospital")
    plan = compile_path(parse_xpath(".//*"))
    contexts = [document, other]
    expected = _interpreter(parse_xpath(".//*"), contexts)
    actual = plan.execute(
        contexts, runtime=PlanRuntime(store=store)
    )
    assert [id(node) for node in actual] == [id(node) for node in expected]


def test_absolute_path_from_inner_context(document, store):
    """An absolute path re-roots at the document regardless of the
    context node, on both backends."""
    patient = document.find_all("patient")[0]
    query = parse_xpath("/hospital/dept")
    expected = _interpreter(query, patient)
    actual = compile_path(query).execute(
        patient, runtime=PlanRuntime(store=store)
    )
    assert [id(node) for node in actual] == [id(node) for node in expected]


def test_empty_context_list(document, store):
    plan = compile_path(parse_xpath("//patient"))
    assert plan.execute([], runtime=PlanRuntime(store=store)) == []


def test_text_context_rows(document, store):
    """Text nodes as contexts: ``.`` keeps them, element steps skip
    them — identical on both backends."""
    texts = [node for node in document.iter() if node.is_text][:5]
    assert texts
    for text_query in (".", "*", "text()", ".."):
        query = parse_xpath(text_query)
        expected = _interpreter(query, list(texts))
        actual = compile_path(query).execute(
            list(texts), runtime=PlanRuntime(store=store)
        )
        assert [id(n) for n in actual] == [id(n) for n in expected]


def test_attribute_qualifiers(store, document):
    from repro.core.naive import annotate_accessibility
    from repro.core.spec import AccessSpec
    from repro.workloads.hospital import hospital_dtd, nurse_spec

    annotated = hospital_document(seed=3, max_branch=3)
    annotate_accessibility(
        annotated, nurse_spec(hospital_dtd()).bind(wardNo="1")
    )
    annotated_store = build_node_table(annotated)
    for text in (
        "//patient[@accessibility]",
        '//patient[@accessibility = "1"]',
        '//*[@accessibility = "0"]',
        '//dept[not(@accessibility = "0")]//name',
    ):
        query = parse_xpath(text)
        expected = _interpreter(query, annotated)
        actual = compile_path(query).execute(
            annotated, runtime=PlanRuntime(store=annotated_store)
        )
        assert [id(n) for n in actual] == [id(n) for n in expected]


def test_columnar_counts_work_in_visits(document, store):
    """The columnar backend reports its own work through the same
    ``visits`` counter (rows scanned/emitted) — nonzero for any real
    scan, so reports stay meaningful."""
    runtime = PlanRuntime(store=store)
    compile_path(parse_xpath("//patient/name")).execute(
        document, runtime=runtime
    )
    assert runtime.visits > 0
