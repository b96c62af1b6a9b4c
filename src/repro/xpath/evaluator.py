"""Set-semantics evaluation of the XPath fragment ``C`` over XML trees.

``v[[p]]`` — the paper's notation — is the set of nodes reachable from
context node ``v`` via ``p``; qualifiers ``[q]`` hold at ``v`` iff the
relevant node set is nonempty (Section 2).  The evaluator is a plain
recursive interpreter over node lists (deduplicated by identity,
discovery order).  Pass ``ordered=True`` to sort results back into
document order.

The evaluator counts the number of node touches in ``visits``; the
benchmark harness reports this machine-independent work measure
alongside wall-clock times.
"""

from __future__ import annotations

from typing import List, Optional

from repro.errors import XPathEvaluationError
from repro.xpath.ast import (
    Absolute,
    Descendant,
    Empty,
    EpsilonPath,
    Label,
    Param,
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


class _VirtualDocumentNode:
    """The document node sitting above the root element; context for
    absolute paths (leading ``/`` or ``//``)."""

    __slots__ = ("label", "children", "attributes", "parent")

    is_element = True
    is_text = False

    def __init__(self, root):
        self.label = "#document"
        self.children = [root]
        self.attributes = {}
        self.parent = None

    def string_value(self) -> str:
        return self.children[0].string_value()


class XPathEvaluator:
    """Evaluates fragment-``C`` expressions.

    One evaluator instance may be reused across queries; ``visits``
    accumulates until :meth:`reset_counters` is called.

    Pass a :class:`repro.robustness.governor.Budget` to enforce a
    deadline and work budgets cooperatively: every ``_eval`` dispatch
    checkpoints, and the unbounded descendant walk ticks per node, so
    runaway queries terminate with a typed error instead of hanging.
    """

    def __init__(self, budget=None):
        self.visits = 0
        self.budget = budget

    def reset_counters(self) -> None:
        self.visits = 0

    # -- public API -----------------------------------------------------

    def evaluate(self, path: Path, context, ordered: bool = False) -> List:
        """Evaluate ``path`` at a context node (or list of nodes).

        Returns a duplicate-free list of result nodes.  With
        ``ordered=True`` the list is sorted into document order (an
        extra full-tree pass)."""
        contexts = context if isinstance(context, list) else [context]
        results = self._eval(path, contexts)
        results = [
            node for node in results if not isinstance(node, _VirtualDocumentNode)
        ]
        if ordered and results:
            results = _document_order(results)
        return results

    def evaluate_qualifier(self, qualifier: Qualifier, node) -> bool:
        """Evaluate a qualifier at one context node."""
        return self._test(qualifier, node)

    # -- path dispatch -----------------------------------------------------

    def _eval(self, path: Path, contexts: List) -> List:
        budget = self.budget
        if budget is not None:
            budget.checkpoint(self.visits, len(contexts))
        if isinstance(path, Empty):
            return []
        if isinstance(path, EpsilonPath):
            return contexts
        if isinstance(path, Label):
            return self._step_label(contexts, path.name)
        if isinstance(path, Wildcard):
            return self._step_wildcard(contexts)
        if isinstance(path, TextStep):
            return self._step_text(contexts)
        if isinstance(path, Parent):
            return self._step_parent(contexts)
        if isinstance(path, Slash):
            return self._eval(path.right, self._eval(path.left, contexts))
        if isinstance(path, Descendant):
            return self._eval(path.inner, self._descendants_or_self(contexts))
        if isinstance(path, Union):
            merged: List = []
            seen = set()
            for branch in path.branches:
                for node in self._eval(branch, contexts):
                    if id(node) not in seen:
                        seen.add(id(node))
                        merged.append(node)
            return merged
        if isinstance(path, Qualified):
            selected = self._eval(path.path, contexts)
            return [
                node
                for node in selected
                if not node.is_text and self._test(path.qualifier, node)
            ]
        if isinstance(path, Absolute):
            roots = []
            seen = set()
            for node in contexts:
                root = node if node.parent is None else _find_root(node)
                if id(root) not in seen:
                    seen.add(id(root))
                    roots.append(root)
            shims = [_VirtualDocumentNode(root) for root in roots]
            return self._eval(path.inner, shims)
        raise XPathEvaluationError("unknown path node %r" % path)

    # -- steps -----------------------------------------------------------------

    def _step_label(self, contexts: List, name: str) -> List:
        results: List = []
        seen = set()
        for node in contexts:
            if node.is_text:
                continue
            for child in node.children:
                self.visits += 1
                if (
                    child.is_element
                    and child.label == name
                    and id(child) not in seen
                ):
                    seen.add(id(child))
                    results.append(child)
        return results

    def _step_wildcard(self, contexts: List) -> List:
        results: List = []
        seen = set()
        for node in contexts:
            if node.is_text:
                continue
            for child in node.children:
                self.visits += 1
                if child.is_element and id(child) not in seen:
                    seen.add(id(child))
                    results.append(child)
        return results

    def _step_parent(self, contexts: List) -> List:
        results: List = []
        seen = set()
        for node in contexts:
            parent = node.parent
            self.visits += 1
            if (
                parent is not None
                and not isinstance(parent, _VirtualDocumentNode)
                and id(parent) not in seen
            ):
                seen.add(id(parent))
                results.append(parent)
        return results

    def _step_text(self, contexts: List) -> List:
        results: List = []
        seen = set()
        for node in contexts:
            if node.is_text:
                continue
            for child in node.children:
                self.visits += 1
                if child.is_text and id(child) not in seen:
                    seen.add(id(child))
                    results.append(child)
        return results

    def _descendants_or_self(self, contexts: List) -> List:
        """All descendant-or-self *elements*, duplicate-free.  Text
        nodes are reached through an explicit ``text()`` step."""
        budget = self.budget
        results: List = []
        seen = set()
        for origin in contexts:
            if origin.is_text:
                continue
            if id(origin) in seen:
                continue
            stack = [origin]
            while stack:
                node = stack.pop()
                if id(node) in seen:
                    continue
                seen.add(id(node))
                results.append(node)
                self.visits += 1
                if budget is not None:
                    budget.tick()
                for child in reversed(node.children):
                    if child.is_element:
                        stack.append(child)
        return results

    # -- qualifiers ---------------------------------------------------------------

    def _test(self, qualifier: Qualifier, node) -> bool:
        if isinstance(qualifier, QBool):
            return qualifier.value
        if isinstance(qualifier, QPath):
            return bool(self._eval(qualifier.path, [node]))
        if isinstance(qualifier, QEquals):
            value = qualifier.value
            if isinstance(value, Param):
                raise XPathEvaluationError(
                    "unbound parameter $%s during evaluation" % value.name
                )
            for selected in self._eval(qualifier.path, [node]):
                self.visits += 1
                if selected.string_value() == value:
                    return True
            return False
        if isinstance(qualifier, QAttr):
            for selected in self._eval(qualifier.path, [node]):
                self.visits += 1
                if selected.is_element and qualifier.name in selected.attributes:
                    return True
            return False
        if isinstance(qualifier, QAttrEquals):
            value = qualifier.value
            if isinstance(value, Param):
                raise XPathEvaluationError(
                    "unbound parameter $%s during evaluation" % value.name
                )
            for selected in self._eval(qualifier.path, [node]):
                self.visits += 1
                if (
                    selected.is_element
                    and selected.attributes.get(qualifier.name) == value
                ):
                    return True
            return False
        if isinstance(qualifier, QAnd):
            return self._test(qualifier.left, node) and self._test(
                qualifier.right, node
            )
        if isinstance(qualifier, QOr):
            return self._test(qualifier.left, node) or self._test(
                qualifier.right, node
            )
        if isinstance(qualifier, QNot):
            return not self._test(qualifier.inner, node)
        raise XPathEvaluationError("unknown qualifier node %r" % qualifier)


def _find_root(node):
    current = node
    while current.parent is not None:
        current = current.parent
    return current


def _document_order(results: List) -> List:
    root = _find_root(results[0])
    order = {}
    for index, node in enumerate(root.iter()):
        order[id(node)] = index
    return sorted(results, key=lambda node: order.get(id(node), -1))


def evaluate(path: Path, context, ordered: bool = False, budget=None) -> List:
    """Module-level convenience wrapper."""
    return XPathEvaluator(budget=budget).evaluate(
        path, context, ordered=ordered
    )


def evaluate_qualifier(qualifier: Qualifier, node) -> bool:
    return XPathEvaluator().evaluate_qualifier(qualifier, node)
