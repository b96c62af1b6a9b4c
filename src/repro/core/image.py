"""Image graphs (Section 5.1).

``image(p, A)`` is a graph rooted at DTD node ``A`` consisting of all
the nodes reached from ``A`` via ``p`` in the DTD graph, along with the
paths leading to them.  Qualifiers hang off path nodes as sub-graphs
whose roots carry the special label ``[]`` (or ``[]=c`` for equality
tests, with ``c`` the constant's ``repr``, so that different constants
never test as equivalent, nor a parameter ``$x`` as the string
``"$x"``).

Two implementation choices, both conservative (they can only make the
approximate containment test *less* willing to claim containment,
never more):

* nodes are keyed by *position along the query* rather than globally
  by DTD type (the paper merges by type).  Type-merging repeated
  labels along one path can create spurious paths in the image,
  which would make the simulation test unsound; position-keying never
  adds paths.  The ``//`` case still merges by type — there the merged
  subgraph is exact, because every path in the reachable DTD subgraph
  *is* a real descendant path.
* graphs that contain constructs outside the paper's conjunctive
  fragment (negation, disjunctive qualifiers, attribute tests) are
  marked ``imprecise``; the containment test refuses to draw
  conclusions from them.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.dtd.content import Str
from repro.dtd.dtd import DTD
from repro.xpath.ast import (
    Absolute,
    Descendant,
    Empty,
    EpsilonPath,
    Label,
    Parent,
    Path,
    QAnd,
    QAttr,
    QAttrEquals,
    QBool,
    QEquals,
    QNot,
    QOr,
    QPath,
    Qualified,
    Qualifier,
    Slash,
    TextStep,
    Union,
    Wildcard,
)

#: Label of qualifier roots.
QUAL_LABEL = "[]"

#: Marker attached below result leaves so that the simulation test
#: distinguishes the *result* nodes of a query from mere path nodes
#: (without it, ``dept`` would appear contained in ``dept/patientInfo``
#: because the shorter path's graph is a subgraph of the longer one's).
RESULT_LABEL = "#result"


class INode:
    """A node of an image graph."""

    __slots__ = ("label", "children", "quals")

    def __init__(self, label: str):
        self.label = label
        self.children: List[INode] = []
        self.quals: List[INode] = []

    def add_child(self, node: "INode") -> "INode":
        if node not in self.children:
            self.children.append(node)
        return node

    def __repr__(self):
        return "INode(%r, %d children, %d quals)" % (
            self.label,
            len(self.children),
            len(self.quals),
        )


class ImageGraph:
    """``image(p, A)``: root node, current leaves (the reach targets),
    and an imprecision flag."""

    __slots__ = ("root", "leaves", "imprecise")

    def __init__(self, root: INode, leaves: List[INode], imprecise: bool = False):
        self.root = root
        self.leaves = leaves
        self.imprecise = imprecise

    def all_nodes(self) -> List[INode]:
        seen: Set[int] = set()
        ordered: List[INode] = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            if id(node) in seen:
                continue
            seen.add(id(node))
            ordered.append(node)
            stack.extend(node.children)
            stack.extend(node.quals)
        return ordered

    def size(self) -> int:
        return len(self.all_nodes())


def reach_types(dtd: DTD, path: Path, start: str) -> Set[str]:
    """DTD element types reachable from ``start`` via ``path``
    (``"#text"`` marks text results)."""
    return _reach(dtd, path, frozenset((start,)))


def _reach(dtd: DTD, path: Path, starts: frozenset) -> Set[str]:
    if isinstance(path, Empty):
        return set()
    if isinstance(path, EpsilonPath):
        return set(starts)
    if isinstance(path, Label):
        return {
            path.name
            for origin in starts
            if origin != "#text"
            and dtd.has_type(origin)
            and dtd.is_child(origin, path.name)
        }
    if isinstance(path, Wildcard):
        found: Set[str] = set()
        for origin in starts:
            if origin != "#text" and dtd.has_type(origin):
                found.update(dtd.children_of(origin))
        return found
    if isinstance(path, TextStep):
        return {
            "#text"
            for origin in starts
            if origin != "#text"
            and dtd.has_type(origin)
            and isinstance(dtd.production(origin), Str)
        }
    if isinstance(path, Parent):
        found: Set[str] = set()
        for origin in starts:
            if origin != "#text" and dtd.has_type(origin):
                found.update(dtd.parents_of(origin))
        return found
    if isinstance(path, Slash):
        middle = _reach(dtd, path.left, starts)
        return _reach(dtd, path.right, frozenset(middle))
    if isinstance(path, Descendant):
        expanded: Set[str] = set()
        for origin in starts:
            if origin != "#text" and dtd.has_type(origin):
                expanded.update(dtd.reachable(origin))
        return _reach(dtd, path.inner, frozenset(expanded))
    if isinstance(path, Union):
        found = set()
        for branch in path.branches:
            found.update(_reach(dtd, branch, starts))
        return found
    if isinstance(path, Qualified):
        return _reach(dtd, path.path, starts)
    if isinstance(path, Absolute):
        return _reach(dtd, path.inner, frozenset(("#document",))) | (
            _reach(dtd, path.inner, frozenset((dtd.root,)))
            if isinstance(path.inner, Descendant)
            else _absolute_reach(dtd, path.inner)
        )
    raise TypeError("unknown path node %r" % path)


def _absolute_reach(dtd: DTD, inner: Path) -> Set[str]:
    """Reach of an absolute path: the first step must select the root."""
    if isinstance(inner, Slash):
        first = _absolute_reach(dtd, inner.left)
        return _reach(dtd, inner.right, frozenset(first))
    if isinstance(inner, Label):
        return {dtd.root} if inner.name == dtd.root else set()
    if isinstance(inner, Wildcard):
        return {dtd.root}
    if isinstance(inner, Qualified):
        return _absolute_reach(dtd, inner.path)
    if isinstance(inner, Union):
        found: Set[str] = set()
        for branch in inner.branches:
            found.update(_absolute_reach(dtd, branch))
        return found
    if isinstance(inner, Descendant):
        expanded = dtd.reachable(dtd.root) | {dtd.root}
        return _reach(dtd, inner.inner, frozenset(expanded))
    return set()


def build_image(dtd: DTD, path: Path, start: str) -> Optional[ImageGraph]:
    """Construct ``image(path, start)``; None when the image is empty
    (the query selects nothing at ``start`` under this DTD).  Result
    leaves are marked so containment compares result sets, not just
    path structure."""
    graph = _image(dtd, path, start)
    if graph is None:
        return None
    for leaf in graph.leaves:
        if not any(child.label == RESULT_LABEL for child in leaf.children):
            leaf.children.append(INode(RESULT_LABEL))
    return graph


def _image(dtd: DTD, path: Path, start: str) -> Optional[ImageGraph]:
    if isinstance(path, Empty):
        return None
    if isinstance(path, EpsilonPath):
        root = INode(start)
        return ImageGraph(root, [root])
    if isinstance(path, Label):
        # case (1)
        if start == "#text" or not dtd.has_type(start):
            return None
        if not dtd.is_child(start, path.name):
            return None
        root = INode(start)
        leaf = root.add_child(INode(path.name))
        return ImageGraph(root, [leaf])
    if isinstance(path, Wildcard):
        # case (2)
        if start == "#text" or not dtd.has_type(start):
            return None
        children = dtd.children_of(start)
        if not children:
            return None
        root = INode(start)
        leaves = [root.add_child(INode(child)) for child in children]
        return ImageGraph(root, leaves)
    if isinstance(path, TextStep):
        if start == "#text" or not dtd.has_type(start):
            return None
        if not isinstance(dtd.production(start), Str):
            return None
        root = INode(start)
        leaf = root.add_child(INode("#text"))
        return ImageGraph(root, [leaf])
    if isinstance(path, Parent):
        # upward step: no sound downward-edge representation exists;
        # provide leaves for composition but refuse containment
        if start == "#text" or not dtd.has_type(start):
            return None
        parents = dtd.parents_of(start)
        if not parents:
            return None
        root = INode(start)
        leaves = [INode(parent) for parent in sorted(parents)]
        return ImageGraph(root, leaves, imprecise=True)
    if isinstance(path, Slash):
        # case (3): attach image(p2, B) at every leaf B
        left = _image(dtd, path.left, start)
        if left is None:
            return None
        leaves: List[INode] = []
        imprecise = left.imprecise
        attached = False
        for leaf in left.leaves:
            sub = _image(dtd, path.right, leaf.label)
            if sub is None:
                continue
            attached = True
            imprecise = imprecise or sub.imprecise
            for child in sub.root.children:
                leaf.add_child(child)
            leaf.quals.extend(sub.root.quals)
            leaves.extend(
                leaf if node is sub.root else node for node in sub.leaves
            )
        if not attached:
            return None
        return ImageGraph(left.root, leaves, imprecise)
    if isinstance(path, Descendant):
        # case (4): "all the nodes reached from A via p, along with the
        # paths leading to them" — the DTD subgraph restricted to nodes
        # on a path from A to a type where the inner image is nonempty,
        # merged by type (exact for descendant-or-self), with the inner
        # image attached at each such anchor
        if start == "#text" or not dtd.has_type(start):
            return None
        reachable = sorted(dtd.reachable(start))
        inner_images = {}
        for name in reachable:
            sub = _image(dtd, path.inner, name)
            if sub is not None:
                inner_images[name] = sub
        if not inner_images:
            return None
        keep = _co_reachable(dtd, reachable, set(inner_images)) | {start}
        per_type: Dict[str, INode] = {name: INode(name) for name in keep}
        for name in keep:
            for child in dtd.children_of(name):
                if child in keep:
                    per_type[name].add_child(per_type[child])
        leaves = []
        imprecise = False
        for name, sub in inner_images.items():
            imprecise = imprecise or sub.imprecise
            anchor = per_type[name]
            for child in sub.root.children:
                anchor.add_child(child)
            anchor.quals.extend(sub.root.quals)
            leaves.extend(
                anchor if node is sub.root else node for node in sub.leaves
            )
        return ImageGraph(per_type[start], leaves, imprecise)
    if isinstance(path, Union):
        # case (5): merge branch roots
        root = INode(start)
        leaves = []
        imprecise = False
        any_branch = False
        for branch in path.branches:
            sub = _image(dtd, branch, start)
            if sub is None:
                continue
            any_branch = True
            imprecise = imprecise or sub.imprecise
            if sub.root.quals:
                # qualifiers on a union-branch root cannot be merged
                # into a shared root soundly; refuse conclusions
                imprecise = True
            for child in sub.root.children:
                root.add_child(child)
            leaves.extend(
                root if node is sub.root else node for node in sub.leaves
            )
        if not any_branch:
            return None
        return ImageGraph(root, leaves, imprecise)
    if isinstance(path, Qualified):
        # case (6): attach the qualifier graph at every selected node
        base = _image(dtd, path.path, start)
        if base is None:
            return None
        return _attach_qualifier(dtd, base, path.qualifier)
    if isinstance(path, Absolute):
        # anchor at a virtual #document node above the root
        doc = INode("#document")
        inner = _absolute_image(dtd, path.inner, doc)
        if inner is None:
            return None
        return inner
    raise TypeError("unknown path node %r" % path)


def _absolute_image(dtd: DTD, inner: Path, doc: INode) -> Optional[ImageGraph]:
    if isinstance(inner, Descendant):
        sub = _image(dtd, Descendant(inner.inner), dtd.root)
        if sub is None:
            return None
        doc.add_child(sub.root)
        return ImageGraph(doc, sub.leaves, sub.imprecise)
    if isinstance(inner, Slash):
        first = _absolute_image(dtd, inner.left, doc)
        if first is None:
            return None
        leaves = []
        imprecise = first.imprecise
        attached = False
        for leaf in first.leaves:
            sub = _image(dtd, inner.right, leaf.label)
            if sub is None:
                continue
            attached = True
            imprecise = imprecise or sub.imprecise
            for child in sub.root.children:
                leaf.add_child(child)
            leaf.quals.extend(sub.root.quals)
            leaves.extend(
                leaf if node is sub.root else node for node in sub.leaves
            )
        if not attached:
            return None
        return ImageGraph(doc, leaves, imprecise)
    if isinstance(inner, Label):
        if inner.name != dtd.root:
            return None
        leaf = doc.add_child(INode(dtd.root))
        return ImageGraph(doc, [leaf])
    if isinstance(inner, Wildcard):
        leaf = doc.add_child(INode(dtd.root))
        return ImageGraph(doc, [leaf])
    if isinstance(inner, Qualified):
        base = _absolute_image(dtd, inner.path, doc)
        if base is None:
            return None
        return _attach_qualifier(dtd, base, inner.qualifier)
    if isinstance(inner, Union):
        leaves = []
        imprecise = False
        any_branch = False
        for branch in inner.branches:
            sub = _absolute_image(dtd, branch, doc)
            if sub is None:
                continue
            any_branch = True
            imprecise = imprecise or sub.imprecise
            leaves.extend(sub.leaves)
        if not any_branch:
            return None
        return ImageGraph(doc, leaves, imprecise)
    return None


def _co_reachable(dtd: DTD, universe, anchors) -> set:
    """Nodes of ``universe`` from which some anchor can be reached
    (anchors included), via reverse-edge search."""
    universe = set(universe)
    parents: Dict[str, Set[str]] = {name: set() for name in universe}
    for name in universe:
        for child in dtd.children_of(name):
            if child in universe:
                parents[child].add(name)
    found = set(anchors) & universe
    frontier = list(found)
    while frontier:
        current = frontier.pop()
        for parent in parents[current]:
            if parent not in found:
                found.add(parent)
                frontier.append(parent)
    return found


def _attach_qualifier(
    dtd: DTD, base: ImageGraph, qualifier: Qualifier
) -> Optional[ImageGraph]:
    """Attach ``[q]`` at every leaf, first trying ``bool([q], A)``:
    "the graph is constructed only when bool([q], A) is not fixed"
    (Section 5.1).  A surely-true qualifier is dropped (Example 5.2);
    a surely-false qualifier invalidates the leaf."""
    from repro.core.constraints import evaluate_qualifier_bool

    kept: List[INode] = []
    imprecise = base.imprecise
    for leaf in base.leaves:
        decided = evaluate_qualifier_bool(dtd, qualifier, leaf.label)
        if decided is True:
            kept.append(leaf)
            continue
        if decided is False:
            # the branch into this leaf stays in the graph but selects
            # nothing; containment conclusions become unreliable
            imprecise = True
            continue
        qual_graph, qual_imprecise = build_qualifier_image(
            dtd, qualifier, leaf.label
        )
        imprecise = imprecise or qual_imprecise
        if qual_graph is not None:
            leaf.quals.append(qual_graph)
        kept.append(leaf)
    if not kept:
        return None
    return ImageGraph(base.root, kept, imprecise)


def build_qualifier_image(dtd: DTD, qualifier: Qualifier, start: str):
    """``image([q], start)``: a graph rooted at a ``[]``-labeled node,
    or None when the qualifier contributes no structural constraints.
    Returns ``(graph_root_or_None, imprecise)``."""
    if isinstance(qualifier, QBool):
        return None, False
    if isinstance(qualifier, QPath):
        sub = _image(dtd, qualifier.path, start)
        if sub is None:
            # structurally unsatisfiable here; callers should have
            # folded this via the constraint analysis already
            return None, True
        root = INode(QUAL_LABEL)
        root.children.extend(sub.root.children)
        root.quals.extend(sub.root.quals)
        return root, sub.imprecise
    if isinstance(qualifier, QEquals):
        sub = _image(dtd, qualifier.path, start)
        if sub is None:
            return None, True
        # repr, not str: a parameter ``$x`` and the string "$x" are
        # different constants and must not share a label
        root = INode("%s=%r" % (QUAL_LABEL, qualifier.value))
        root.children.extend(sub.root.children)
        root.quals.extend(sub.root.quals)
        return root, sub.imprecise
    if isinstance(qualifier, QAnd):
        # case (8) last bullet: combine the two images at the root
        left, left_imprecise = build_qualifier_image(
            dtd, qualifier.left, start
        )
        right, right_imprecise = build_qualifier_image(
            dtd, qualifier.right, start
        )
        imprecise = left_imprecise or right_imprecise
        if left is None:
            return right, imprecise
        if right is None:
            return left, imprecise
        if left.label != right.label:
            # an equality and an existence test cannot share a root
            return left, True
        for child in right.children:
            left.add_child(child)
        left.quals.extend(right.quals)
        return left, imprecise
    # disjunction, negation, attribute tests: outside the conjunctive
    # fragment C^-; mark imprecise so no containment is concluded
    if isinstance(qualifier, (QOr, QNot, QAttr, QAttrEquals)):
        return None, True
    raise TypeError("unknown qualifier node %r" % qualifier)
