"""Algorithm ``rewrite`` (Fig. 6): XPath query rewriting over views.

Transforms a query ``p`` posed against a security view into an
equivalent query ``p_t`` over the original document, by dynamic
programming over pairs ``(sub-query of p, view-DTD node)``:
``rw(p', A)`` is the local translation of ``p'`` at view node ``A`` and
``reach(p', A)`` the view nodes reachable from ``A`` via ``p'``.

Implementation notes (see DESIGN.md):

* ``rw(p', A)`` is kept *per target node*: a mapping
  ``target view node -> document path`` whose union is the paper's
  ``rw`` value, while ``reach`` is its key set.  This strengthens the
  figure's case (4): the printed combination
  ``rw(p1, A)/(U_B rw(p2, B))`` may concatenate a continuation
  ``rw(p2, B)`` — only valid at ``B`` elements — onto prefixes landing
  on *other* element types, which over-selects when accessibility is
  context-dependent.  Tracking targets individually composes each
  continuation only with the prefixes that actually land on its type.
* ``reach(//, A)`` includes ``A`` itself (descendant-*or-self*), as
  Example 4.1's ``(treatment U epsilon)`` output requires.
* The ``recProc`` precomputation builds ``recrw(A, B)`` — one XPath
  query capturing *all* view paths from ``A`` to ``B`` translated
  through sigma — by processing nodes in topological order and reusing
  the already-built prefix expression of each intermediate node
  (the figure's symbolic ``Z_x`` variables correspond to shared
  sub-expression objects here), so construction stays polynomial.
* Rewriting requires a DAG view; recursive views must first be
  unfolded (Section 4.2, :mod:`repro.core.unfold`).

The algorithm runs in ``O(|p| * |Dv|^2)`` (Theorem 4.1).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.errors import RewriteError
from repro.dtd.content import Str
from repro.core.view import SecurityView
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

#: Pseudo view-node key representing the virtual document node above
#: the view root (context of absolute queries).
DOCUMENT_KEY = "#document"

#: Pseudo target prefix for text results (they admit no further steps).
_TEXT_TARGET = "#text"

#: ``rw`` values: target view-node key -> document path landing there.
RwMap = Dict[str, Path]


class Rewriter:
    """Rewrites queries over one security view.  Precomputations
    (``recProc``) are cached, so reuse one instance per view when
    rewriting many queries.  The dynamic program's memo keys on the
    query's sub-expressions, so it lives for one public call
    (:meth:`rewrite_targets`, :meth:`reach`): a long-lived rewriter
    holds ``recProc`` per view node, never an entry per past query."""

    def __init__(self, view: SecurityView):
        if view.is_recursive():
            raise RewriteError(
                "rewrite requires a DAG view DTD; unfold the recursive "
                "view first (repro.core.unfold.unfold_view)"
            )
        self.view = view
        self._memo: Dict[Tuple[Path, str], RwMap] = {}
        self._qmemo: Dict[Tuple[Qualifier, str], Qualifier] = {}
        self._desc_cache: Dict[str, Dict[str, Path]] = {}

    # -- public API ------------------------------------------------------

    def rewrite(self, query: Path, context_key: Optional[str] = None) -> Path:
        """Rewrite ``query`` (over the view DTD) into an equivalent
        query over the document.  Relative queries are rewritten at the
        view root (pass ``context_key`` to override); absolute queries
        are anchored at the virtual document node."""
        return self.rewrite_targets(query, context_key)[1]

    def rewrite_targets(
        self, query: Path, context_key: Optional[str] = None
    ) -> Tuple[RwMap, Path]:
        """:meth:`rewrite` kept per target view node, as ``(targets,
        rewritten)``: ``targets`` maps each view node ``query`` reaches
        to the document path landing there (anchored at the document
        for absolute queries), ``rewritten`` is their union — what
        :meth:`rewrite` returns.  ``targets`` may be the memo's own
        mapping: read it, never mutate it."""
        self._reset_memo()
        if isinstance(query, Absolute):
            inner = self._rw(query.inner, DOCUMENT_KEY)
            combined = union(inner.values())
            targets = {key: Absolute(path) for key, path in inner.items()}
            if combined.is_empty:
                return targets, combined
            return targets, Absolute(combined)
        context = self.view.root_key if context_key is None else context_key
        targets = self._rw(query, context)
        return targets, union(targets.values())

    def reach(self, query: Path, context_key: Optional[str] = None) -> List[str]:
        """View nodes reachable from the context via ``query``."""
        self._reset_memo()
        if isinstance(query, Absolute):
            return sorted(self._rw(query.inner, DOCUMENT_KEY))
        context = self.view.root_key if context_key is None else context_key
        return sorted(self._rw(query, context))

    def memo_entries(self) -> int:
        """Entries the dynamic program's memo holds (at most one
        query's worth; see the class docstring)."""
        return len(self._memo) + len(self._qmemo)

    def _reset_memo(self) -> None:
        # rebinding (not clearing) leaves a concurrent call's returned
        # mappings intact; both calls then share the new, correct memo
        self._memo = {}
        self._qmemo = {}

    # -- view-graph access with the virtual document node -------------------

    def _children(self, key: str) -> Tuple[str, ...]:
        if key == DOCUMENT_KEY:
            return (self.view.root_key,)
        if key.startswith(_TEXT_TARGET):
            return ()
        return self.view.children_of(key)

    def _sigma(self, parent: str, child: str) -> Path:
        if parent == DOCUMENT_KEY:
            return Label(self.view.doc_dtd.root)
        return self.view.sigma_of(parent, child)

    def _label(self, key: str) -> str:
        if key == DOCUMENT_KEY:
            return DOCUMENT_KEY
        return self.view.node(key).label

    def _is_text_key(self, key: str) -> bool:
        return key.startswith(_TEXT_TARGET)

    # -- the dynamic program -----------------------------------------------------

    def _rw(self, query: Path, key: str) -> RwMap:
        memo_key = (query, key)
        cached = self._memo.get(memo_key)
        if cached is not None:
            return cached
        result = self._compute_rw(query, key)
        self._memo[memo_key] = result
        return result

    def _compute_rw(self, query: Path, key: str) -> RwMap:
        if isinstance(query, Empty):
            return {}
        if isinstance(query, EpsilonPath):
            return {key: EPSILON}
        if isinstance(query, Label):
            # case (2): sigma annotations of the matching child edges
            result: RwMap = {}
            for child in self._children(key):
                if self._label(child) == query.name:
                    _merge(result, child, self._sigma(key, child))
            return result
        if isinstance(query, Wildcard):
            # case (3): union of all child annotations
            result = {}
            for child in self._children(key):
                _merge(result, child, self._sigma(key, child))
            return result
        if isinstance(query, TextStep):
            if key == DOCUMENT_KEY or self._is_text_key(key):
                return {}
            node = self.view.node(key)
            if isinstance(node.content, Str):
                text_path = self.view.sigma_text.get(key)
                if text_path is not None:
                    return {_TEXT_TARGET + ":" + key: text_path}
            return {}
        if isinstance(query, Slash):
            # case (4), per-target composition
            left = self._rw(query.left, key)
            result = {}
            for mid_key, prefix in left.items():
                if self._is_text_key(mid_key):
                    continue
                for target, continuation in self._rw(
                    query.right, mid_key
                ).items():
                    _merge(result, target, slash(prefix, continuation))
            return result
        if isinstance(query, Descendant):
            # case (5): precomputed recrw over the view DAG
            result = {}
            for descendant_key, prefix in self._descendant_paths(key).items():
                for target, continuation in self._rw(
                    query.inner, descendant_key
                ).items():
                    _merge(result, target, slash(prefix, continuation))
            return result
        if isinstance(query, Union):
            result = {}
            for branch in query.branches:
                for target, path in self._rw(branch, key).items():
                    _merge(result, target, path)
            return result
        if isinstance(query, Qualified):
            base = self._rw(query.path, key)
            result = {}
            for target, path in base.items():
                if self._is_text_key(target):
                    continue  # qualifiers apply to element nodes
                condition = self._rw_qualifier(query.qualifier, target)
                rewritten = qualified(path, condition)
                if not rewritten.is_empty:
                    result[target] = rewritten
            return result
        if isinstance(query, Absolute):
            inner = self._rw(query.inner, DOCUMENT_KEY)
            combined = union(inner.values())
            if combined.is_empty:
                return {}
            return {
                target: Absolute(path) for target, path in inner.items()
            }
        if isinstance(query, Parent):
            raise RewriteError(
                "upward axes ('..') cannot be rewritten over security "
                "views: one view edge may correspond to a multi-step "
                "document path, so the parent of a view node has no "
                "fixed document-level counterpart (Section 7 lists "
                "larger fragments as future work)"
            )
        raise RewriteError("cannot rewrite query node %r" % query)

    # -- qualifiers (cases 7-12) ----------------------------------------------------

    def _rw_qualifier(self, condition: Qualifier, key: str) -> Qualifier:
        memo_key = (condition, key)
        cached = self._qmemo.get(memo_key)
        if cached is not None:
            return cached
        result = self._compute_rw_qualifier(condition, key)
        self._qmemo[memo_key] = result
        return result

    def _compute_rw_qualifier(self, condition: Qualifier, key: str) -> Qualifier:
        if isinstance(condition, QBool):
            return condition
        if isinstance(condition, QPath):
            return qpath(union(self._rw(condition.path, key).values()))
        if isinstance(condition, QEquals):
            path = union(self._rw(condition.path, key).values())
            if path.is_empty:
                return QBool(False)
            return QEquals(path, condition.value)
        if isinstance(condition, (QAttr, QAttrEquals)):
            # attributes of view elements are those of the underlying
            # accessible document elements — unless hidden by an
            # attribute-level annotation, in which case the view simply
            # has no such attribute.  The path prefix is rewritten
            # per-target; targets whose attribute is hidden drop out.
            name = condition.name
            branches = []
            for target, rewritten_path in self._rw(
                condition.path, key
            ).items():
                if self._is_text_key(target):
                    continue
                if target != DOCUMENT_KEY and name in (
                    self.view.hidden_attributes_of(target)
                ):
                    continue
                branches.append(rewritten_path)
            combined = union(branches)
            if combined.is_empty:
                return QBool(False)
            if isinstance(condition, QAttr):
                return QAttr(name, combined)
            return QAttrEquals(name, condition.value, combined)
        if isinstance(condition, QAnd):
            return qand(
                self._rw_qualifier(condition.left, key),
                self._rw_qualifier(condition.right, key),
            )
        if isinstance(condition, QOr):
            return qor(
                self._rw_qualifier(condition.left, key),
                self._rw_qualifier(condition.right, key),
            )
        if isinstance(condition, QNot):
            return qnot(self._rw_qualifier(condition.inner, key))
        raise RewriteError("cannot rewrite qualifier node %r" % condition)

    # -- recProc (Fig. 6, bottom) ----------------------------------------------------

    def _descendant_paths(self, start: str) -> Dict[str, Path]:
        """``recrw(start, B)`` for every view node ``B`` reachable from
        ``start`` (including ``start`` itself, with path epsilon)."""
        cached = self._desc_cache.get(start)
        if cached is not None:
            return cached
        reachable = self._reachable_from(start)
        order = self._topological(start, reachable)
        recrw: Dict[str, Path] = {start: EPSILON}
        for node_key in order:
            prefix = recrw.get(node_key)
            if prefix is None:
                continue
            for child in self._children(node_key):
                step = slash(prefix, self._sigma(node_key, child))
                existing = recrw.get(child)
                recrw[child] = (
                    step if existing is None else union([existing, step])
                )
        self._desc_cache[start] = recrw
        return recrw

    def _reachable_from(self, start: str) -> set:
        seen = {start}
        frontier = [start]
        while frontier:
            current = frontier.pop()
            for child in self._children(current):
                if child not in seen:
                    seen.add(child)
                    frontier.append(child)
        return seen

    def _topological(self, start: str, reachable: set) -> List[str]:
        indegree = {key: 0 for key in reachable}
        for key in reachable:
            for child in self._children(key):
                if child in reachable:
                    indegree[child] += 1
        queue = [key for key, degree in indegree.items() if degree == 0]
        order: List[str] = []
        while queue:
            current = queue.pop()
            order.append(current)
            for child in self._children(current):
                indegree[child] -= 1
                if indegree[child] == 0:
                    queue.append(child)
        if len(order) != len(reachable):
            raise RewriteError("view DTD has a cycle; unfold it first")
        return order


def _merge(result: RwMap, target: str, path: Path) -> None:
    if path.is_empty:
        return
    existing = result.get(target)
    result[target] = path if existing is None else union([existing, path])


def rewrite(
    view: SecurityView, query: Path, context_key: Optional[str] = None
) -> Path:
    """One-shot convenience wrapper around :class:`Rewriter`."""
    return Rewriter(view).rewrite(query, context_key)
