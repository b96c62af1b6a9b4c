"""Compiled plans must be drop-in equivalents of the interpreter:
identical result lists, always in document order.  With a NodeTable
the plan runs its columnar kernels; without one (or for contexts
outside the table's tree) it hands the query to the interpreter and
counts the interpreter's visits."""

import pytest

from repro.obs.profile import ProfileCollector
from repro.workloads.hospital import hospital_document
from repro.xmlmodel.store import build_node_table
from repro.xpath.evaluator import XPathEvaluator
from repro.xpath.parser import parse_xpath
from repro.xpath.plan import CompiledPlan, PlanRuntime, compile_path

QUERIES = [
    ".",
    "0",
    "*",
    "//patient",
    "/hospital/dept",
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
]


@pytest.fixture(scope="module")
def document():
    return hospital_document(seed=11, max_branch=4)


@pytest.fixture(scope="module")
def store(document):
    return build_node_table(document)


@pytest.mark.parametrize("text", QUERIES)
@pytest.mark.parametrize("ordered", [False, True])
def test_plan_matches_interpreter(document, text, ordered):
    """Without a NodeTable the plan runs the interpreter: the
    interpreter's answer in document order (whichever order the
    interpreter itself was asked for), and the interpreter's visits."""
    query = parse_xpath(text)
    evaluator = XPathEvaluator()
    expected = [id(node) for node in evaluator.evaluate(
        query, document, ordered=ordered
    )]
    if not ordered:
        position = {id(node): i for i, node in enumerate(document.iter())}
        expected.sort(key=position.__getitem__)
    runtime = PlanRuntime()
    actual = compile_path(query).execute(document, runtime=runtime)
    assert [id(node) for node in actual] == expected
    assert runtime.visits == evaluator.visits


@pytest.mark.parametrize("text", QUERIES)
def test_plan_matches_interpreter_with_index(document, store, text):
    """With the document's NodeTable (its interval and label-posting
    index) the plan runs its columnar kernels and returns the
    interpreter's document-ordered answer."""
    query = parse_xpath(text)
    expected = XPathEvaluator().evaluate(query, document, ordered=True)
    actual = compile_path(query).execute(
        document, runtime=PlanRuntime(store)
    )
    assert [id(node) for node in actual] == [id(node) for node in expected]


def test_plan_reusable_across_documents():
    plan = compile_path(parse_xpath("//patient/name"))
    for seed in (1, 2, 3):
        document = hospital_document(seed=seed, max_branch=3)
        expected = XPathEvaluator().evaluate(
            parse_xpath("//patient/name"), document
        )
        results = plan.execute(document, store=build_node_table(document))
        assert len(results) == len(expected)


def test_index_fallback_outside_indexed_tree(document, store):
    """Contexts outside the NodeTable's tree fall back to the
    interpreter, exactly as a run with no table at all."""
    other = hospital_document(seed=23, max_branch=3)
    plan = compile_path(parse_xpath("//patient"))
    walked = plan.execute(other)  # no table at all
    foreign = plan.execute(other, store=store)  # table of the wrong tree
    expected = XPathEvaluator().evaluate(
        parse_xpath("//patient"), other, ordered=True
    )
    assert [id(node) for node in foreign] == [id(node) for node in walked]
    assert [id(node) for node in walked] == [id(node) for node in expected]


def test_fallback_is_visible_in_the_profile(document, store):
    plan = compile_path(parse_xpath("//patient"))
    collector = ProfileCollector()
    plan.execute(document, runtime=PlanRuntime(store, profile=collector))
    assert "interpreter-fallback" not in collector.events
    plan.execute(document, runtime=PlanRuntime(profile=collector))
    assert collector.events["interpreter-fallback"] == 1


def test_runtime_accumulates_across_executions(document, store):
    plan = compile_path(parse_xpath("//patient"))
    runtime = PlanRuntime(store)
    plan.execute(document, runtime=runtime)
    first = runtime.visits
    assert first > 0
    plan.execute(document, runtime=runtime)
    assert runtime.visits == 2 * first
    runtime.reset_counters()
    assert runtime.visits == 0


def test_plan_repr_and_operator_count():
    plan = compile_path(parse_xpath("//patient[wardNo]/name"))
    assert isinstance(plan, CompiledPlan)
    assert plan.operator_count > 3
    assert "CompiledPlan" in repr(plan)


def test_unbound_parameter_raises(document, store):
    from repro.errors import XPathEvaluationError

    plan = compile_path(parse_xpath("//patient[wardNo = $w]"))
    for table in (store, None):  # columnar, then the fallback
        with pytest.raises(XPathEvaluationError):
            plan.execute(document, store=table)


class TestTemplateSlots:
    """A plan compiled over a query template
    (:func:`~repro.xpath.fingerprint.parameterize`) reads each slot's
    constant from ``PlanRuntime.params`` when it runs."""

    TEXTS = [
        '//patient[wardNo = "2"]/name',
        '//patient[wardNo = "1" or name = "x"]/treatment',
        '(//patient[wardNo = "3"]/name | //patient[wardNo = "3"]/treatment)',
        '//dept[@id = "d1"]//patient',
    ]

    @pytest.mark.parametrize("text", TEXTS)
    def test_bound_template_matches_the_concrete_plan(
        self, document, store, text
    ):
        from repro.xpath.fingerprint import parameterize

        template, values = parameterize(parse_xpath(text))
        plan = compile_path(template)
        bound = plan.execute(
            document, runtime=PlanRuntime(store, params=values)
        )
        concrete = compile_path(parse_xpath(text)).execute(
            document, store=store
        )
        assert [id(node) for node in bound] == [id(n) for n in concrete]
        # the interpreter fallback binds the same way
        fallback = plan.execute(document, runtime=PlanRuntime(params=values))
        assert [id(node) for node in fallback] == [id(n) for n in concrete]

    def test_a_slot_without_a_value_is_unbound(self, document, store):
        from repro.errors import XPathEvaluationError

        plan = compile_path(parse_xpath("//patient[wardNo = $_0]"))
        with pytest.raises(XPathEvaluationError, match=r"\$_0"):
            plan.execute(document, store=store)

    def test_a_parameter_bound_into_a_slot_stays_unbound(
        self, document, store
    ):
        from repro.errors import XPathEvaluationError
        from repro.xpath.ast import Param

        plan = compile_path(parse_xpath("//patient[wardNo = $_0]"))
        runtime = PlanRuntime(store, params=(Param("ward"),))
        with pytest.raises(XPathEvaluationError, match=r"\$ward"):
            plan.execute(document, runtime=runtime)

    def test_explain_labels_show_the_bound_value(self, document, store):
        from repro.xpath.fingerprint import parameterize

        template, values = parameterize(
            parse_xpath('//patient[wardNo = "2"]/name | //dept[@id = "d9"]')
        )
        plan = compile_path(template)
        collector = ProfileCollector()
        plan.execute(
            document,
            runtime=PlanRuntime(store, profile=collector, params=values),
        )
        rendered = plan.profile(collector, values).render()
        assert "q:equals = '2'" in rendered
        assert "q:attr-equals @id = 'd9'" in rendered
        assert "$_" not in rendered
