"""Materialization semantics of security views (Section 3.3).

Security views are *virtual* in the paper's framework — this module
exists because the paper defines the semantics of a view through a
materialization procedure, and because a reference materializer is the
perfect oracle for testing query rewriting:

    for all queries p:   p(Tv)  ==  rewrite(p)(T)

The computation is top-down: the root of ``Tv`` is the root of ``T``;
each view element carries an *origin* (the document node it was
extracted from), and children are produced by evaluating the sigma
annotations at the origin, keeping only accessible nodes (for real
labels; dummy elements are structural and may be anchored at hidden
document nodes).  The per-shape rules (1)-(5) of Section 3.3 apply;
rule violations raise :class:`MaterializationAborted`.

The rules live in :class:`ViewExpander`.  :func:`materialize` is the
oracle: its expander computes accessibility and document order itself,
per call.  The engine projects results through the same rules with a
:class:`repro.core.projection.Projector`, which reads both from
NodeTable rows; this module imports nothing from that path.
"""

from __future__ import annotations

from typing import Dict, List

from repro.errors import MaterializationAborted
from repro.dtd.content import (
    Choice,
    Epsilon,
    Name,
    Seq,
    Star,
    Str,
)
from repro.core.accessibility import compute_accessibility
from repro.core.spec import AccessSpec
from repro.core.view import SecurityView
from repro.robustness.faults import trip as fault_trip
from repro.xmlmodel.nodes import XMLElement, XMLText
from repro.xpath.evaluator import XPathEvaluator


class ViewExpander:
    """The Section 3.3 rules (1)-(5): expand a view element from its
    document origin by evaluating the sigma annotations there.

    Which extracted elements are accessible, and what document order
    is, is left to :meth:`_select`: the oracle (:class:`_Materializer`)
    answers from its own accessibility pass, the engine's projector
    (:class:`repro.core.projection.Projector`) from a NodeTable row
    column."""

    def __init__(self, view: SecurityView, budget=None):
        self.view = view
        self.budget = budget
        self.evaluator = XPathEvaluator(budget=budget)

    def _select(self, nodes: List, dummy: bool) -> List:
        """The element nodes of one sigma answer that the view keeps
        (all of them for a dummy target, the accessible ones
        otherwise), in document order."""
        raise NotImplementedError

    def project(self, key: str, origin) -> XMLElement:
        """The view subtree anchored at view node ``key`` with document
        origin ``origin``."""
        node = self.view.node(key)
        element = XMLElement(node.label)
        if not node.is_dummy:
            self._copy_attributes(element, key, origin)
        self._expand(element, key, origin)
        return element

    def _copy_attributes(self, view_element, key: str, origin) -> None:
        hidden = self.view.hidden_attributes_of(key)
        for name, value in origin.attributes.items():
            if name not in hidden:
                view_element.set(name, value)

    # -- expansion --------------------------------------------------------

    def _expand(self, view_element: XMLElement, key: str, origin) -> None:
        if self.budget is not None:
            self.budget.tick()
        content = self.view.node(key).content
        if isinstance(content, Epsilon):
            return
        if isinstance(content, Str):
            self._expand_text(view_element, key, origin)
            return
        if isinstance(content, Name):
            child = self._extract_one(key, content.name, origin)
            self._attach(view_element, content.name, child)
            return
        if isinstance(content, Seq):
            for item in content.items:
                if isinstance(item, Name):
                    child = self._extract_one(key, item.name, origin)
                    self._attach(view_element, item.name, child)
                elif isinstance(item, Star) and isinstance(item.item, Name):
                    for node in self._extract_all(key, item.item.name, origin):
                        self._attach(view_element, item.item.name, node)
                else:
                    raise MaterializationAborted(
                        "unexpected view production item %r" % (item,)
                    )
            return
        if isinstance(content, Choice):
            self._expand_choice(view_element, key, content, origin)
            return
        if isinstance(content, Star) and isinstance(content.item, Name):
            for node in self._extract_all(key, content.item.name, origin):
                self._attach(view_element, content.item.name, node)
            return
        raise MaterializationAborted(
            "unsupported view production %r" % (content,)
        )

    def _expand_text(self, view_element: XMLElement, key: str, origin):
        path = self.view.sigma_text.get(key)
        if path is None:
            raise MaterializationAborted(
                "str production of %r has no sigma(str) annotation" % key
            )
        texts = [
            node
            for node in self.evaluator.evaluate(path, origin)
            if node.is_text
        ]
        if texts:
            view_element.append(
                XMLText("".join(node.value for node in texts))
            )

    def _expand_choice(
        self, view_element: XMLElement, key: str, content: Choice, origin
    ) -> None:
        # rule (4): exactly one alternative must produce a single node
        matches: List[tuple] = []
        for item in content.items:
            if not isinstance(item, Name):
                raise MaterializationAborted(
                    "unexpected choice item %r in view production" % (item,)
                )
            nodes = self._extract_all(key, item.name, origin)
            if nodes:
                matches.append((item.name, nodes))
        if len(matches) != 1 or len(matches[0][1]) != 1:
            raise MaterializationAborted(
                "choice production of %r matched %d alternatives at %r "
                "(exactly one single node required)"
                % (key, len(matches), origin.label)
            )
        child_key, nodes = matches[0]
        self._attach(view_element, child_key, nodes[0])

    # -- extraction ------------------------------------------------------------

    def _extract_all(self, parent_key: str, child_key: str, origin) -> List:
        """rule (5): all accessible nodes, in document order."""
        path = self.view.sigma_of(parent_key, child_key)
        return self._select(
            self.evaluator.evaluate(path, origin),
            self.view.node(child_key).is_dummy,
        )

    def _extract_one(self, parent_key: str, child_key: str, origin):
        """rules (2)/(3): the annotation must produce exactly one
        (accessible, for real labels) node."""
        nodes = self._extract_all(parent_key, child_key, origin)
        if len(nodes) != 1:
            raise MaterializationAborted(
                "sigma(%s, %s) produced %d nodes at a %r element "
                "(exactly one required)"
                % (parent_key, child_key, len(nodes), origin.label)
            )
        return nodes[0]

    def _attach(self, view_element: XMLElement, child_key: str, origin) -> None:
        child_node = self.view.node(child_key)
        child_element = view_element.add_element(child_node.label)
        if not child_node.is_dummy:
            self._copy_attributes(child_element, child_key, origin)
        self._expand(child_element, child_key, origin)


class _Materializer(ViewExpander):
    """The reference materializer: its own accessibility pass
    (:func:`compute_accessibility`) and document-order map over the
    whole document, built per instance."""

    def __init__(
        self, document_root, view: SecurityView, spec: AccessSpec, budget=None
    ):
        super().__init__(view, budget=budget)
        self.document_root = document_root
        self.spec = spec
        self.accessible = compute_accessibility(document_root, spec)
        self.doc_order: Dict[int, int] = {
            id(node): index
            for index, node in enumerate(document_root.iter())
        }

    def run(self) -> XMLElement:
        root_node = self.view.root
        if root_node.label != self.document_root.label:
            raise MaterializationAborted(
                "document root %r does not match view root %r"
                % (self.document_root.label, root_node.label)
            )
        view_root = XMLElement(root_node.label)
        self._copy_attributes(view_root, root_node.key, self.document_root)
        self._expand(view_root, root_node.key, self.document_root)
        return view_root

    def _select(self, nodes: List, dummy: bool) -> List:
        if not dummy:
            nodes = [
                node
                for node in nodes
                if node.is_element and self.accessible.get(id(node), False)
            ]
        else:
            nodes = [node for node in nodes if node.is_element]
        nodes.sort(key=lambda node: self.doc_order.get(id(node), -1))
        return nodes


def materialize(document_root, view: SecurityView, spec: AccessSpec, budget=None):
    """Materialize ``Tv`` from a document, a view, and the (concrete,
    parameter-free) specification the view was derived from.

    Raises :class:`MaterializationAborted` when the Section 3.3 rules
    are violated (the situations Theorem 3.2 excludes)."""
    fault_trip("materialize")
    return _Materializer(document_root, view, spec, budget=budget).run()


def materialize_subtree(
    document_root,
    view: SecurityView,
    spec: AccessSpec,
    key: str,
    origin,
    budget=None,
    projector=None,
) -> XMLElement:
    """Materialize only the view subtree anchored at view node ``key``
    with document origin ``origin``.

    This is how query results are *projected through the view* without
    materializing the whole view: a result element's copy carries the
    view label (dummies stay renamed) and only view-visible
    descendants.

    The engine passes the query's ``projector`` (a
    :class:`~repro.core.projection.Projector`, built with its own view
    and budget), which answers from the policy's accessibility column.
    Without one, a one-off reference materializer recomputes
    accessibility over the whole document, so a call costs
    O(document)."""
    fault_trip("materialize")
    if projector is None:
        projector = _Materializer(document_root, view, spec, budget=budget)
    return projector.project(key, origin)
