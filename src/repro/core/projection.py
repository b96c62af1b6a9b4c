"""Projection of query results through a security view, compiled.

Every element result of a query is copied through the view (Section
3.3, rules 1-5): its copy carries the view label, and its children are
the accessible elements the sigma annotations extract at the result,
expanded the same way, top-down.  This module runs that expansion over
a document's :class:`~repro.xmlmodel.store.NodeTable` without the
reference interpreter:

* :func:`accessibility_column` runs Prop. 3.1's top-down pass once per
  (policy, document) and stores the answer as a ``bytearray`` indexed
  by preorder row.
* A :class:`ViewProgram` compiles one view's expansion once: per view
  node its label, dummy flag, hidden attributes and fixed steps, one
  per seq item, choice or star, each sigma edge a compiled plan
  (:func:`~repro.xpath.plan.compile_path`), or a direct child walk
  when sigma is a single label.  It depends on the view only, so the
  engine keeps one per policy (one per unfolded height of a recursive
  view).
* A :class:`Projector` runs a program for one query, from each
  result's row: plan frontiers are sorted rows, so extracted children
  arrive in document order, and the column decides which are kept.
  Its plan runs and child walks count visits on the query's
  :class:`~repro.xpath.plan.PlanRuntime`, and plan operators
  checkpoint its budget, so ``max_visits`` bounds plans and
  projection together.

The reference materializer (:func:`repro.core.materialize.materialize`)
computes accessibility itself, interprets the view with the reference
evaluator and imports nothing from this module, so it stays an
independent oracle for the answers projected here.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core.spec import ANN_N, ANN_Y, AccessSpec, CondAnnotation
from repro.core.view import SecurityView
from repro.dtd.content import Choice, Epsilon, Name, Seq, Star, Str
from repro.errors import MaterializationAborted
from repro.xmlmodel.nodes import XMLElement, XMLText
from repro.xpath.ast import Label, TextStep
from repro.xpath.evaluator import XPathEvaluator
from repro.xpath.plan import PlanRuntime, compile_path


def accessibility_column(store, spec: AccessSpec) -> bytearray:
    """``column[r]`` is 1 iff element row ``r`` of ``store`` is
    accessible under ``spec`` (text rows read 0).

    Rows are preorder, so a parent's row precedes its children's and
    one ascending pass sees every parent settled first.  A conditional
    ``[q]`` is evaluated once, at its row."""
    size = store.size
    column = bytearray(size)
    if not size:
        return column
    # conditions[r]: every conditional annotation on the path to r holds
    conditions = bytearray(size)
    column[0] = conditions[0] = 1  # the root is accessible
    parent = store.parent
    label_ids = store.label_ids
    labels = store.labels
    nodes = store.nodes
    text_label_id = store.text_label_id
    evaluator = XPathEvaluator()
    for row in range(1, size):
        label_id = label_ids[row]
        if label_id == text_label_id:
            continue
        up = parent[row]
        annotation = spec.ann(labels[label_ids[up]], labels[label_id])
        conditions_ok = conditions[up]
        if annotation is ANN_Y:
            accessible = conditions_ok
        elif annotation is ANN_N:
            accessible = 0
        elif isinstance(annotation, CondAnnotation):
            if conditions_ok and not evaluator.evaluate_qualifier(
                annotation.qualifier, nodes[row]
            ):
                conditions_ok = 0
            accessible = conditions_ok
        else:
            accessible = column[up]
        column[row] = accessible
        conditions[row] = conditions_ok
    return column


# Step kinds of a compiled view node (rules 1-5 of Section 3.3).
_ONE = 0  # a Name item: exactly one extracted element
_ALL = 1  # a starred Name: every extracted element, in document order
_CHOICE = 2  # exactly one alternative extracts exactly one element
_TEXT = 3  # str: the text rows sigma(str) extracts, joined
_ABORT = 4  # a production the rules do not cover: abort when reached


class _Node:
    """One view node's compiled expansion."""

    __slots__ = ("key", "label", "dummy", "hidden", "steps")

    def __init__(self, key: str, label: str, dummy: bool, hidden: frozenset):
        self.key = key
        self.label = label
        self.dummy = dummy
        self.hidden = hidden
        self.steps = ()


class _Edge:
    """``sigma(parent, child)`` compiled: a direct child walk for a
    single label (``label``), a plan otherwise (``plan``)."""

    __slots__ = ("parent_key", "child", "label", "plan")

    def __init__(self, parent_key: str, child: _Node, path):
        self.parent_key = parent_key
        self.child = child
        if isinstance(path, Label):
            self.label = path.name
            self.plan = None
        else:
            self.label = None
            self.plan = compile_path(path)


class ViewProgram:
    """A security view's Section 3.3 expansion, compiled once.

    ``nodes`` maps each view node key to its compiled expansion.  The
    program depends on the view alone (no document, no policy
    accessibility), so one serves every query and document of the
    view."""

    __slots__ = ("view", "nodes")

    def __init__(self, view: SecurityView):
        self.view = view
        self.nodes: Dict[str, _Node] = {
            key: _Node(
                key, node.label, node.is_dummy, view.hidden_attributes_of(key)
            )
            for key, node in view.nodes.items()
        }
        for key, node in self.nodes.items():
            node.steps = tuple(self._steps(key))

    def _edge(self, parent_key: str, child_key: str) -> _Edge:
        return _Edge(
            parent_key,
            self.nodes[child_key],
            self.view.sigma_of(parent_key, child_key),
        )

    def _steps(self, key: str) -> List[tuple]:
        content = self.view.node(key).content
        if isinstance(content, Epsilon):
            return []
        if isinstance(content, Str):
            path = self.view.sigma_text.get(key)
            if path is None:
                return [(
                    _ABORT,
                    "str production of %r has no sigma(str) annotation" % key,
                )]
            # text() (None) is a direct walk over the children
            plan = None if isinstance(path, TextStep) else compile_path(path)
            return [(_TEXT, plan)]
        if isinstance(content, Name):
            return [(_ONE, self._edge(key, content.name))]
        if isinstance(content, Seq):
            steps = []
            for item in content.items:
                if isinstance(item, Name):
                    steps.append((_ONE, self._edge(key, item.name)))
                elif isinstance(item, Star) and isinstance(item.item, Name):
                    steps.append((_ALL, self._edge(key, item.item.name)))
                else:
                    steps.append((
                        _ABORT,
                        "unexpected view production item %r" % (item,),
                    ))
                    break
            return steps
        if isinstance(content, Choice):
            for item in content.items:
                if not isinstance(item, Name):
                    return [(
                        _ABORT,
                        "unexpected choice item %r in view production"
                        % (item,),
                    )]
            return [(
                _CHOICE,
                tuple(self._edge(key, item.name) for item in content.items),
            )]
        if isinstance(content, Star) and isinstance(content.item, Name):
            return [(_ALL, self._edge(key, content.item.name))]
        return [(_ABORT, "unsupported view production %r" % (content,))]


class Projector:
    """One query's projection through a compiled view: ``program``
    run over ``store``, keeping the elements ``column`` marks
    accessible (every element for a dummy child).

    Visits continue ``runtime``'s count and its plan operators
    checkpoint ``runtime.budget``; every expanded element ticks the
    budget, and each projected subtree ends with an exact
    ``max_visits`` charge."""

    __slots__ = (
        "_view_nodes", "_row", "_doc_nodes", "_label_ids", "_label_index",
        "_first_child", "_next_sibling", "_text_label_id", "_column",
        "_runtime", "_budget",
    )

    def __init__(
        self,
        program: ViewProgram,
        store,
        column: bytearray,
        runtime: Optional[PlanRuntime] = None,
    ):
        if runtime is None:
            runtime = PlanRuntime(store)
        self._view_nodes = program.nodes
        self._row = store.row
        self._doc_nodes = store.nodes
        self._label_ids = store.label_ids
        self._label_index = store.label_index
        self._first_child = store.first_child
        self._next_sibling = store.next_sibling
        self._text_label_id = store.text_label_id
        self._column = column
        self._runtime = runtime
        self._budget = runtime.budget

    def project(self, key: str, origin) -> XMLElement:
        """The view subtree anchored at view node ``key`` with document
        origin ``origin`` (a node of the store's document)."""
        row = self._row(origin)
        node = self._view_nodes[key]
        element = XMLElement(node.label)
        if not node.dummy:
            self._copy_attributes(element, node, row)
        self._expand(element, node, row)
        if self._budget is not None:
            self._budget.charge_visits(self._runtime.visits)
        return element

    def _copy_attributes(self, element: XMLElement, node: _Node, row: int):
        attributes = self._doc_nodes[row].attributes
        if attributes:
            hidden = node.hidden
            element.attributes = (
                {
                    name: value
                    for name, value in attributes.items()
                    if name not in hidden
                }
                if hidden
                else dict(attributes)
            )

    def _expand(self, element: XMLElement, node: _Node, row: int) -> None:
        if self._budget is not None:
            self._budget.tick()
        for kind, payload in node.steps:
            if kind == _ONE:
                rows = self._extract(payload, row)
                if len(rows) != 1:
                    raise MaterializationAborted(
                        "sigma(%s, %s) produced %d nodes at a %r element "
                        "(exactly one required)"
                        % (
                            payload.parent_key,
                            payload.child.key,
                            len(rows),
                            self._doc_nodes[row].label,
                        )
                    )
                self._attach(element, payload.child, rows[0])
            elif kind == _ALL:
                child = payload.child
                for child_row in self._extract(payload, row):
                    self._attach(element, child, child_row)
            elif kind == _TEXT:
                # inlined, not a method: most projected elements are
                # str leaves
                label_ids = self._label_ids
                text_label_id = self._text_label_id
                nodes = self._doc_nodes
                if payload is None:
                    next_sibling = self._next_sibling
                    parts = []
                    visits = 0
                    child = self._first_child[row]
                    while child != -1:
                        visits += 1
                        if label_ids[child] == text_label_id:
                            parts.append(nodes[child].value)
                        child = next_sibling[child]
                    self._runtime.visits += visits
                else:
                    parts = [
                        nodes[text_row].value
                        for text_row in payload.execute_rows(
                            self._runtime, [row]
                        )
                        if label_ids[text_row] == text_label_id
                    ]
                if parts:
                    element.children.append(XMLText("".join(parts), element))
            elif kind == _CHOICE:
                self._expand_choice(element, node, payload, row)
            else:
                raise MaterializationAborted(payload)

    def _expand_choice(
        self, element: XMLElement, node: _Node, edges, row: int
    ) -> None:
        # rule (4): exactly one alternative must produce a single node
        matches = []
        for edge in edges:
            rows = self._extract(edge, row)
            if rows:
                matches.append((edge, rows))
        if len(matches) != 1 or len(matches[0][1]) != 1:
            raise MaterializationAborted(
                "choice production of %r matched %d alternatives at %r "
                "(exactly one single node required)"
                % (node.key, len(matches), self._doc_nodes[row].label)
            )
        edge, rows = matches[0]
        self._attach(element, edge.child, rows[0])

    def _extract(self, edge: _Edge, row: int) -> List[int]:
        """rule (5): the rows ``edge`` extracts at ``row`` that the view
        keeps (accessible elements; every element for a dummy), in
        document order."""
        dummy = edge.child.dummy
        column = self._column
        label = edge.label
        if label is not None:
            kept: List[int] = []
            label_id = self._label_index.get(label)
            if label_id is None:
                return kept
            label_ids = self._label_ids
            next_sibling = self._next_sibling
            visits = 0
            child = self._first_child[row]
            while child != -1:
                visits += 1
                if label_ids[child] == label_id and (dummy or column[child]):
                    kept.append(child)
                child = next_sibling[child]
            self._runtime.visits += visits
            return kept
        rows = edge.plan.execute_rows(self._runtime, [row])
        if dummy:
            label_ids = self._label_ids
            text_label_id = self._text_label_id
            return [
                child for child in rows if label_ids[child] != text_label_id
            ]
        return [child for child in rows if column[child]]

    def _attach(self, element: XMLElement, child: _Node, row: int) -> None:
        child_element = XMLElement(child.label)
        if not child.dummy:
            self._copy_attributes(child_element, child, row)
        child_element.parent = element
        element.children.append(child_element)
        self._expand(child_element, child, row)
