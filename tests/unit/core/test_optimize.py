"""Unit tests for Algorithm optimize (Fig. 10)."""

import pytest

from repro.core.optimize import Optimizer, optimize
from repro.dtd.generator import DocumentGenerator
from repro.dtd.parser import parse_dtd
from repro.xpath.evaluator import evaluate
from repro.xpath.parser import parse_xpath

DTD_TEXT = """
<!ELEMENT r (pair, either, items)>
<!ELEMENT pair (b, c)>
<!ELEMENT either (b | c)>
<!ELEMENT items (item*)>
<!ELEMENT item (b, tag)>
<!ELEMENT b (#PCDATA)>
<!ELEMENT c (#PCDATA)>
<!ELEMENT tag (#PCDATA)>
"""


@pytest.fixture(scope="module")
def dtd():
    return parse_dtd(DTD_TEXT)


@pytest.fixture(scope="module")
def optimizer(dtd):
    return Optimizer(dtd)


def opt(optimizer, text):
    return str(optimizer.optimize(parse_xpath(text)))


class TestQualifierFolding:
    def test_coexistence_removes_qualifier(self, optimizer):
        # Example 5.1 first case
        assert opt(optimizer, "pair[b and c]") == "pair"

    def test_exclusive_folds_to_empty(self, optimizer):
        assert opt(optimizer, "either[b and c]") == "0"

    def test_nonexistence_folds_to_empty(self, optimizer):
        assert opt(optimizer, "pair[tag]") == "0"

    def test_data_dependent_qualifier_kept(self, optimizer):
        assert opt(optimizer, "either[b]") == "either[b]"

    def test_equality_value_kept(self, optimizer):
        assert opt(optimizer, 'pair[b = "1"]') == 'pair[b = "1"]'

    def test_equality_on_missing_path_folds(self, optimizer):
        assert opt(optimizer, 'pair[z = "1"]') == "0"


class TestStructuralPruning:
    def test_nonexistent_step_pruned(self, optimizer):
        # Example 5.1 third case: (a U b)/c with c only under a
        assert opt(optimizer, "(pair | either)/c | items/c") == (
            "(pair/c | either/c)"
        )

    def test_wildcard_expansion(self, optimizer):
        assert opt(optimizer, "pair/*") == "(pair/b | pair/c)"

    def test_descendant_expansion(self, optimizer):
        assert opt(optimizer, "items//tag") == "items/item/tag"

    def test_descendant_or_self_expansion(self, optimizer):
        # a leading // anchors at the document node, so the expansion
        # goes through the root element
        result = opt(optimizer, "//c")
        assert result == "/(r/pair/c | r/either/c)"

    def test_unknown_label_empty(self, optimizer):
        assert opt(optimizer, "ghost/b") == "0"


class TestUnionPruning:
    def test_contained_branch_dropped(self, optimizer):
        # item[tag] is contained in item (tag is required anyway)
        assert opt(optimizer, "items/item | items/item[tag]") == "items/item"

    def test_wildcard_absorbs_label(self, optimizer):
        result = opt(optimizer, "items/(item | *)")
        assert result == "items/item"

    def test_unrelated_branches_kept(self, optimizer):
        result = opt(optimizer, "pair/b | either/c")
        assert result == "(pair/b | either/c)"

    @pytest.mark.parametrize(
        "text",
        [
            'items/item[b = $x] | items/item[b = "$x"]',
            'items/item[b = "$x"] | items/item[b = $x]',
        ],
    )
    def test_parameter_and_its_spelling_as_a_string_both_kept(
        self, optimizer, text
    ):
        # neither branch contains the other: $x may bind to any value
        result = optimizer.optimize(parse_xpath(text))
        assert len(result.branches) == 2


class TestRecursiveFallback:
    def test_recursive_region_keeps_descendant(self):
        dtd = parse_dtd(
            """
            <!ELEMENT node (leaf | kids)>
            <!ELEMENT kids (node)>
            <!ELEMENT leaf (#PCDATA)>
            """
        )
        result = optimize(dtd, parse_xpath("//leaf"))
        assert "//" in str(result)
        # and it still evaluates correctly
        for seed in range(4):
            document = DocumentGenerator(dtd, seed=seed, max_depth=8).generate()
            expected = {id(n) for n in evaluate(parse_xpath("//leaf"), document)}
            actual = {id(n) for n in evaluate(result, document)}
            assert expected == actual

    def test_mixed_recursive_and_dag(self):
        dtd = parse_dtd(
            """
            <!ELEMENT r (meta, tree)>
            <!ELEMENT meta (#PCDATA)>
            <!ELEMENT tree (leaf | kids)>
            <!ELEMENT kids (tree)>
            <!ELEMENT leaf (#PCDATA)>
            """
        )
        result = optimize(dtd, parse_xpath("//meta | //leaf"))
        text = str(result)
        assert "meta" in text and "leaf" in text


class TestEquivalence:
    QUERIES = [
        "pair/b",
        "//b",
        "//*",
        "items/item[b and tag]",
        "pair[b and c]/b | either[b and c]/b",
        "(pair | either | items)/b",
        "//item[not(tag)]",
        'items/item[b = "x"]/tag',
        "r | .",
        "//item[tag]/b | //item/b",
    ]

    @pytest.mark.parametrize("text", QUERIES)
    def test_optimized_query_equivalent(self, dtd, optimizer, text):
        query = parse_xpath(text)
        optimized = optimizer.optimize(query)
        for seed in range(5):
            document = DocumentGenerator(
                dtd, seed=seed, max_branch=3
            ).generate()
            expected = sorted(id(n) for n in evaluate(query, document))
            actual = sorted(id(n) for n in evaluate(optimized, document))
            assert expected == actual, text


class TestAbsoluteQueries:
    def test_absolute_root(self, optimizer):
        assert opt(optimizer, "/r/pair/b") == "/r/pair/b"

    def test_absolute_wrong_root(self, optimizer):
        assert opt(optimizer, "/x/pair") == "0"

    def test_leading_descendant(self, optimizer):
        result = opt(optimizer, "//tag")
        assert result == "/r/items/item/tag"


class TestPerTargetSoundness:
    """Fig. 10's printed case (4) can pair a continuation optimized at
    B with prefixes landing at B'; the per-target DP must not."""

    def test_no_cross_type_qualifier_leak(self):
        dtd = parse_dtd(
            """
            <!ELEMENT r (m, n)>
            <!ELEMENT m (x)>
            <!ELEMENT n (x)>
            <!ELEMENT x (y | z)>
            <!ELEMENT y (#PCDATA)>
            <!ELEMENT z (#PCDATA)>
            """
        )
        # [y] is data-dependent at x under both m and n; now make a
        # query whose qualifier folds differently per branch target:
        query = parse_xpath("(m | n)/x[y and z]")
        optimized = optimize(dtd, query)
        assert str(optimized) == "0"  # exclusive at x everywhere

    def test_mixed_target_types(self):
        dtd = parse_dtd(
            """
            <!ELEMENT r (m, n)>
            <!ELEMENT m (q)>
            <!ELEMENT n (q, extra)>
            <!ELEMENT q (#PCDATA)>
            <!ELEMENT extra (#PCDATA)>
            """
        )
        # [extra] holds always at n, never at m
        query = parse_xpath("(m | n)[extra]/q")
        optimized = optimize(dtd, query)
        assert str(optimized) == "n/q"


class TestIdempotenceAndCost:
    def test_optimizing_twice_is_stable(self, dtd, optimizer):
        for text in TestEquivalence.QUERIES:
            once = optimizer.optimize(parse_xpath(text))
            twice = optimizer.optimize(once)
            assert once == twice, text

    def test_optimized_visits_fewer_nodes(self, dtd, optimizer):
        from repro.xpath.evaluator import XPathEvaluator

        document = DocumentGenerator(dtd, seed=1, max_branch=20).generate()
        query = parse_xpath("//tag")
        optimized = optimizer.optimize(query)
        before = XPathEvaluator()
        before.evaluate(query, document)
        after = XPathEvaluator()
        after.evaluate(optimized, document)
        assert after.visits <= before.visits
