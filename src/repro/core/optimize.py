"""Algorithm ``optimize`` (Fig. 10): DTD-aware XPath optimization.

Rewrites a (document-level) query into an equivalent but cheaper one by
"evaluating" it over the DTD graph:

* wildcard steps expand into the labels that can actually occur;
* steps into types that cannot exist are pruned to the empty query
  (non-existence constraints);
* qualifiers decided by co-existence / exclusive constraints fold to
  true/false (Example 5.1, queries Q3/Q4 of Section 6);
* ``//`` steps are expanded into the precise union of label paths
  (``recrw`` over the DTD) when the reachable subgraph is a DAG;
* redundant union branches are pruned through the approximate,
  simulation-based containment test (Proposition 5.1).

Like :mod:`repro.core.rewrite`, the dynamic program tracks results *per
target element type* — the printed case (4) concatenates ``opt(p2, B)``
(only valid at ``B`` elements) onto prefixes that may land on other
types; per-target tracking restores soundness (see DESIGN.md).  Within
recursive DTD regions, where ``//`` cannot be expanded, results fall
back to a single "unknown type" bucket on which no type-specific
simplification is performed.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.dtd.content import Str
from repro.dtd.dtd import DTD
from repro.core.constraints import (
    evaluate_qualifier_bool,
    exclusive_conflict,
)
from repro.core.image import build_image, build_qualifier_image
from repro.core.simulation import node_simulated, simulates
from repro.xpath.ast import (
    Absolute,
    Descendant,
    EPSILON,
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
    qand,
    qnot,
    qor,
    qpath,
    qualified,
    slash,
    union,
)

#: Pseudo targets.
_DOC = "#document"
_TEXT = "#text"
_ANY = "#any"

OptMap = Dict[str, Path]


class Optimizer:
    """Optimizes queries against one document DTD.  Reuse an instance
    across queries: ``recrw`` precomputations are cached per DTD node.
    The dynamic program's cells key on the query's sub-expressions, so
    they live for one public call (:meth:`optimize`,
    :meth:`optimize_qualifier`), never from one query to the next.
    """

    def __init__(self, dtd: DTD):
        self.dtd = dtd
        self._memo: Dict[Tuple[Path, str], OptMap] = {}
        self._qmemo: Dict[Tuple[Qualifier, str], Qualifier] = {}
        self._desc_cache: Dict[str, Optional[Dict[str, Path]]] = {}

    # -- public API --------------------------------------------------------

    def optimize(self, query: Path, context: Optional[str] = None) -> Path:
        """Optimize ``query``.  Relative queries are optimized at the
        document root type (override with ``context``); absolute
        queries at the virtual document node."""
        self._reset_memo()
        if isinstance(query, Absolute):
            inner = self._opt(query.inner, _DOC)
            combined = self._pruned_union(inner, _DOC)
            if combined.is_empty:
                return combined
            return Absolute(combined)
        start = self.dtd.root if context is None else context
        return self._pruned_union(self._opt(query, start), start)

    def optimize_qualifier(self, condition: Qualifier, context: str) -> Qualifier:
        self._reset_memo()
        return self._opt_qualifier(condition, context)

    def memo_entries(self) -> int:
        """Entries the dynamic program's memo holds (at most one
        call's worth; see the class docstring)."""
        return len(self._memo) + len(self._qmemo)

    def _reset_memo(self) -> None:
        # rebinding (not clearing): a concurrent call keeps working,
        # sharing the new memo, whose cells are correct for both
        self._memo = {}
        self._qmemo = {}

    # -- graph access with pseudo nodes ----------------------------------------

    def _children(self, node: str) -> Tuple[str, ...]:
        if node == _DOC:
            return (self.dtd.root,)
        if node in (_TEXT, _ANY) or not self.dtd.has_type(node):
            return ()
        return self.dtd.children_of(node)

    # -- the dynamic program -------------------------------------------------------

    def _opt(self, query: Path, node: str) -> OptMap:
        memo_key = (query, node)
        cached = self._memo.get(memo_key)
        if cached is not None:
            return cached
        result = self._compute(query, node)
        self._memo[memo_key] = result
        return result

    def _compute(self, query: Path, node: str) -> OptMap:
        if isinstance(query, Empty):
            return {}
        if node == _ANY:
            # unknown context type (recursive region): no type-specific
            # reasoning; pass the query through unchanged
            return {_ANY: query}
        if isinstance(query, EpsilonPath):
            return {node: EPSILON}
        if isinstance(query, Label):
            # case (2)
            if query.name in self._children(node):
                return {query.name: query}
            return {}
        if isinstance(query, Wildcard):
            # case (3): expand into the possible labels
            return {child: Label(child) for child in self._children(node)}
        if isinstance(query, TextStep):
            if self.dtd.has_type(node) and isinstance(
                self.dtd.production(node), Str
            ):
                return {_TEXT: query}
            return {}
        if isinstance(query, Parent):
            # upward step: target types are the DTD parents, but the
            # continuation cannot be specialized per type soundly (one
            # '..' lands on whichever parent exists), so fall back to
            # the unknown-type bucket
            if node == _DOC:
                return {}
            if self.dtd.has_type(node) and not self.dtd.parents_of(node):
                return {}  # the root type has no element parent
            return {_ANY: query}
        if isinstance(query, Slash):
            # case (4), per-target composition
            left = self._opt(query.left, node)
            result: OptMap = {}
            for mid, prefix in left.items():
                if mid == _TEXT:
                    continue
                for target, continuation in self._opt(
                    query.right, mid
                ).items():
                    _merge(result, target, slash(prefix, continuation))
            return result
        if isinstance(query, Descendant):
            return self._opt_descendant(query, node)
        if isinstance(query, Union):
            result = {}
            for branch in query.branches:
                for target, path in self._opt(branch, node).items():
                    _merge(result, target, path)
            return result
        if isinstance(query, Qualified):
            base = self._opt(query.path, node)
            result = {}
            for target, path in base.items():
                if target == _TEXT:
                    continue
                if target == _ANY:
                    rewritten = qualified(path, query.qualifier)
                else:
                    rewritten = qualified(
                        path, self._opt_qualifier(query.qualifier, target)
                    )
                if not rewritten.is_empty:
                    result[target] = rewritten
            return result
        if isinstance(query, Absolute):
            inner = self._opt(query.inner, _DOC)
            combined = self._pruned_union(inner, _DOC)
            if combined.is_empty:
                return {}
            return {target: Absolute(path) for target, path in inner.items()}
        raise TypeError("cannot optimize query node %r" % query)

    def _opt_descendant(self, query: Descendant, node: str) -> OptMap:
        # case (5): expand // into precise paths via recrw when the
        # reachable DTD subgraph is acyclic
        paths = self._descendant_paths(node)
        if paths is None:
            # recursive region: keep // and optimize only per reachable
            # type, collapsing into the unknown bucket
            inner = union(
                self._pruned_union(self._opt(query.inner, reached), reached)
                for reached in self._reachable_or_self(node)
            )
            if inner.is_empty:
                return {}
            return {_ANY: Descendant(inner)}
        result: OptMap = {}
        for descendant_node, prefix in paths.items():
            for target, continuation in self._opt(
                query.inner, descendant_node
            ).items():
                _merge(result, target, slash(prefix, continuation))
        return result

    # -- qualifier optimization (case 7 + Section 5.1) ---------------------------------

    def _opt_qualifier(self, condition: Qualifier, node: str) -> Qualifier:
        memo_key = (condition, node)
        cached = self._qmemo.get(memo_key)
        if cached is not None:
            return cached
        result = self._compute_qualifier(condition, node)
        self._qmemo[memo_key] = result
        return result

    def _compute_qualifier(self, condition: Qualifier, node: str) -> Qualifier:
        decided = evaluate_qualifier_bool(self.dtd, condition, node)
        if decided is not None:
            return QBool(decided)
        if isinstance(condition, QPath):
            optimized = self._pruned_union(
                self._opt(condition.path, node), node
            )
            return qpath(optimized)
        if isinstance(condition, QEquals):
            optimized = self._pruned_union(
                self._opt(condition.path, node), node
            )
            if optimized.is_empty:
                return QBool(False)
            return QEquals(optimized, condition.value)
        if isinstance(condition, QBool):
            return condition
        if isinstance(condition, QAttr):
            optimized = self._pruned_union(
                self._opt(condition.path, node), node
            )
            if optimized.is_empty:
                return QBool(False)
            return QAttr(condition.name, optimized)
        if isinstance(condition, QAttrEquals):
            optimized = self._pruned_union(
                self._opt(condition.path, node), node
            )
            if optimized.is_empty:
                return QBool(False)
            return QAttrEquals(condition.name, condition.value, optimized)
        if isinstance(condition, QAnd):
            left = self._opt_qualifier(condition.left, node)
            right = self._opt_qualifier(condition.right, node)
            if isinstance(left, QBool) or isinstance(right, QBool):
                return qand(left, right)
            if exclusive_conflict(self.dtd, left, right, node):
                return QBool(False)
            # containment: a conjunct implied by the other is dropped
            if self._qualifier_contained(left, right, node):
                return left
            if self._qualifier_contained(right, left, node):
                return right
            return qand(left, right)
        if isinstance(condition, QOr):
            left = self._opt_qualifier(condition.left, node)
            right = self._opt_qualifier(condition.right, node)
            if self._qualifier_contained(left, right, node):
                return right
            if self._qualifier_contained(right, left, node):
                return left
            return qor(left, right)
        if isinstance(condition, QNot):
            return qnot(self._opt_qualifier(condition.inner, node))
        raise TypeError("cannot optimize qualifier node %r" % condition)

    def _qualifier_contained(
        self, tighter: Qualifier, looser: Qualifier, node: str
    ) -> bool:
        """True when ``tighter`` implies ``looser`` at ``node`` (so the
        looser qualifier is redundant in a conjunction)."""
        tighter_graph, tighter_imprecise = build_qualifier_image(
            self.dtd, tighter, node
        )
        looser_graph, looser_imprecise = build_qualifier_image(
            self.dtd, looser, node
        )
        if tighter_imprecise or looser_imprecise:
            return False
        if tighter_graph is None or looser_graph is None:
            return False
        return node_simulated(tighter_graph, looser_graph)

    # -- union pruning (case 6) -------------------------------------------------------

    def _pruned_union(self, targets: OptMap, node: str) -> Path:
        branches: List[Path] = []
        for _, path in sorted(targets.items()):
            combined = path.branches if isinstance(path, Union) else (path,)
            branches.extend(combined)
        branches = _dedup(branches)
        if len(branches) > 1:
            branches = self._prune_contained(branches, node)
        return union(branches)

    def _prune_contained(self, branches: List[Path], node: str) -> List[Path]:
        images = [
            build_image(self.dtd, branch, node)
            if node != _DOC and self.dtd.has_type(node)
            else build_image(self.dtd, branch, self.dtd.root)
            if node == _DOC
            else None
            for branch in branches
        ]
        keep = [True] * len(branches)
        for i, smaller in enumerate(images):
            if smaller is None:
                continue
            for j, larger in enumerate(images):
                if i == j or not keep[j] or not keep[i] or larger is None:
                    continue
                if simulates(smaller, larger):
                    keep[i] = False
                    break
        return [branch for i, branch in enumerate(branches) if keep[i]]

    # -- recrw over the DTD -------------------------------------------------------------

    def _reachable_or_self(self, node: str) -> List[str]:
        if node == _DOC:
            return [_DOC] + sorted(self.dtd.reachable(self.dtd.root))
        if not self.dtd.has_type(node):
            return []
        return sorted(self.dtd.reachable(node))

    def _descendant_paths(self, node: str) -> Optional[Dict[str, Path]]:
        """``recrw(node, B)`` for every reachable ``B`` (epsilon for
        ``node`` itself), or None when the reachable subgraph is
        cyclic."""
        if node in self._desc_cache:
            return self._desc_cache[node]
        reachable = set(self._reachable_or_self(node))
        order = self._topological(node, reachable)
        if order is None:
            self._desc_cache[node] = None
            return None
        recrw: Dict[str, Path] = {node: EPSILON}
        for current in order:
            prefix = recrw.get(current)
            if prefix is None:
                continue
            for child in self._children(current):
                step = slash(prefix, Label(child))
                existing = recrw.get(child)
                recrw[child] = (
                    step if existing is None else union([existing, step])
                )
        self._desc_cache[node] = recrw
        return recrw

    def _topological(self, start: str, reachable: set) -> Optional[List[str]]:
        indegree = {key: 0 for key in reachable}
        for key in reachable:
            for child in self._children(key):
                if child in reachable:
                    indegree[child] += 1
        queue = [key for key, degree in indegree.items() if degree == 0]
        if start not in queue and indegree.get(start, 0) == 0:
            queue.append(start)
        order: List[str] = []
        while queue:
            current = queue.pop()
            order.append(current)
            for child in self._children(current):
                if child in indegree:
                    indegree[child] -= 1
                    if indegree[child] == 0:
                        queue.append(child)
        if len(order) != len(reachable):
            return None  # cycle
        return order


def _merge(result: OptMap, target: str, path: Path) -> None:
    if path.is_empty:
        return
    existing = result.get(target)
    result[target] = path if existing is None else union([existing, path])


def _dedup(branches: List[Path]) -> List[Path]:
    seen = set()
    kept = []
    for branch in branches:
        if branch.is_empty or branch in seen:
            continue
        seen.add(branch)
        kept.append(branch)
    return kept


def optimize(dtd: DTD, query: Path, context: Optional[str] = None) -> Path:
    """One-shot convenience wrapper around :class:`Optimizer`."""
    return Optimizer(dtd).optimize(query, context)
