"""Unit tests for image-graph construction (Section 5.1)."""

import pytest

from repro.core.image import (
    QUAL_LABEL,
    build_image,
    build_qualifier_image,
    reach_types,
)
from repro.dtd.parser import parse_dtd
from repro.xpath.parser import parse_qualifier, parse_xpath

# Fig. 9's DTD: a -> (b | c); b -> d; c -> d; d -> (e | f); e -> g; f -> g
FIG9_DTD = """
<!ELEMENT a (b | c)>
<!ELEMENT b (d)>
<!ELEMENT c (d)>
<!ELEMENT d (e | f)>
<!ELEMENT e (g)>
<!ELEMENT f (g)>
<!ELEMENT g (#PCDATA)>
"""


@pytest.fixture(scope="module")
def fig9():
    return parse_dtd(FIG9_DTD)


def labels(graph):
    from repro.core.image import RESULT_LABEL

    return sorted(
        node.label
        for node in graph.all_nodes()
        if node.label != RESULT_LABEL
    )


class TestReach:
    def test_label_reach(self, fig9):
        assert reach_types(fig9, parse_xpath("b"), "a") == {"b"}
        assert reach_types(fig9, parse_xpath("x"), "a") == set()

    def test_wildcard_reach(self, fig9):
        assert reach_types(fig9, parse_xpath("*"), "a") == {"b", "c"}

    def test_chain_reach(self, fig9):
        assert reach_types(fig9, parse_xpath("*/d/*/g"), "a") == {"g"}

    def test_descendant_reach(self, fig9):
        reached = reach_types(fig9, parse_xpath("//g"), "a")
        assert reached == {"g"}
        everything = reach_types(fig9, parse_xpath("//."), "a")
        assert everything == {"a", "b", "c", "d", "e", "f", "g"}

    def test_union_reach(self, fig9):
        assert reach_types(fig9, parse_xpath("b | c"), "a") == {"b", "c"}

    def test_text_reach(self, fig9):
        assert reach_types(fig9, parse_xpath("text()"), "g") == {"#text"}


class TestImages:
    def test_label_image(self, fig9):
        graph = build_image(fig9, parse_xpath("b"), "a")
        assert labels(graph) == ["a", "b"]
        assert [leaf.label for leaf in graph.leaves] == ["b"]

    def test_label_image_empty(self, fig9):
        assert build_image(fig9, parse_xpath("g"), "a") is None

    def test_wildcard_image(self, fig9):
        graph = build_image(fig9, parse_xpath("*"), "a")
        assert labels(graph) == ["a", "b", "c"]

    def test_example52_wildcard_chain(self, fig9):
        # image(a[b]/*/d/*/g, a) equals the whole DTD graph (Fig. 9a)
        graph = build_image(fig9, parse_xpath("a[b]/*/d/*/g"), "a")
        assert graph is None  # 'a' is not a child of 'a'

    def test_example52_from_context(self, fig9):
        # evaluated AT a: the paper writes the first step 'a[b]' as the
        # context; our equivalent is .[b]/*/d/*/g
        graph = build_image(fig9, parse_xpath(".[b]/*/d/*/g"), "a")
        assert set(labels(graph)) == {"a", "b", "c", "d", "e", "f", "g", QUAL_LABEL}

    def test_example52_explicit_branches(self, fig9):
        p3 = parse_xpath(".[b]/b/d/e/g | ./c/d/f/g")
        graph = build_image(fig9, p3, "a")
        assert graph is not None
        # both branch paths present
        assert labels(graph).count("g") >= 1

    def test_union_image_merges_roots(self, fig9):
        graph = build_image(fig9, parse_xpath("b | c"), "a")
        root_children = sorted(child.label for child in graph.root.children)
        assert root_children == ["b", "c"]

    def test_descendant_image_is_reachable_subgraph(self, fig9):
        from repro.xpath.ast import Descendant, Label

        graph = build_image(fig9, Descendant(Label("g")), "a")
        assert set(labels(graph)) == {"a", "b", "c", "d", "e", "f", "g"}

    def test_qualifier_attachment(self, fig9):
        # [d/e] at b is data-dependent (e sits in a disjunction), so
        # the qualifier graph is attached rather than folded
        graph = build_image(fig9, parse_xpath("b[d/e]"), "a")
        (leaf,) = graph.leaves
        assert leaf.label == "b"
        assert leaf.quals and leaf.quals[0].label == QUAL_LABEL

    def test_decided_qualifier_folds(self, fig9):
        # [d] at b is decided true (required child): no qualifier node
        graph = build_image(fig9, parse_xpath("b[d]"), "a")
        (leaf,) = graph.leaves
        assert leaf.quals == []

    def test_equality_constant_in_label(self, fig9):
        root, imprecise = build_qualifier_image(
            fig9, parse_qualifier('[g = "5"]'), "e"
        )
        assert not imprecise
        assert root.label == "%s=%r" % (QUAL_LABEL, "5")

    def test_parameter_and_string_equalities_label_apart(self, fig9):
        # "$x" and $x are different constants: one label for both let
        # containment drop a union branch that a binding needs
        parameter, _ = build_qualifier_image(
            fig9, parse_qualifier("[g = $x]"), "e"
        )
        literal, _ = build_qualifier_image(
            fig9, parse_qualifier('[g = "$x"]'), "e"
        )
        assert parameter.label != literal.label

    def test_disjunctive_qualifier_marked_imprecise(self, fig9):
        _, imprecise = build_qualifier_image(
            fig9, parse_qualifier("[b or c]"), "a"
        )
        assert imprecise

    def test_negation_marked_imprecise(self, fig9):
        _, imprecise = build_qualifier_image(
            fig9, parse_qualifier("[not(b)]"), "a"
        )
        assert imprecise

    def test_conjunction_merges(self, fig9):
        root, imprecise = build_qualifier_image(
            fig9, parse_qualifier("[e and f]"), "d"
        )
        assert not imprecise
        assert sorted(child.label for child in root.children) == ["e", "f"]

    def test_absolute_image(self, fig9):
        graph = build_image(fig9, parse_xpath("/a/b/d"), "a")
        assert graph.root.label == "#document"
        assert [leaf.label for leaf in graph.leaves] == ["d"]

    def test_image_size_bound(self, fig9):
        # |image(p, A)| <= |D| * |p| (Section 5.1)
        query = parse_xpath(".[b]/*/d/*/g")
        graph = build_image(fig9, query, "a")
        assert graph.size() <= fig9.size() * query.size()
