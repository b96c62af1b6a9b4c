"""Compiled query plans: executable operator trees for fragment ``C``.

The interpreter in :mod:`repro.xpath.evaluator` re-dispatches on AST
node types at every step of every evaluation.  On the serving path the
same rewritten/optimized query runs over and over (the engine's plan
cache amortizes rewriting per policy, not per request), so this module
compiles a :class:`~repro.xpath.ast.Path` once into a tree of step
*operators* whose dispatch is resolved ahead of time.

Operators execute set-at-a-time over sorted row-id frontiers of a
:class:`~repro.xmlmodel.store.NodeTable` (``run_rows`` / ``test_row``).
Child and descendant steps are merge/interval joins against label
posting lists, ``//label`` chains collapse into successive posting
slices over merged disjoint intervals, unions are sorted merges, and a
frontier is always sorted and duplicate-free — so results arrive in
document order with no per-node identity bookkeeping.

Design constraints:

* **Semantics parity.**  ``CompiledPlan.execute`` returns the *same
  node objects in the same (document) order* as
  ``XPathEvaluator.evaluate(..., ordered=True)``.  The ``visits``
  counter measures columnar work (rows scanned/emitted), so it is
  comparable across plan runs but not with the interpreter.
* **One backend, one fallback.**  A plan is compiled once and executed
  against many documents; the NodeTable is a property of the
  *execution*, not the plan.  When the runtime carries no store (a
  plan run outside the engine) or a context node lies outside the
  store's tree, the plan hands its source path to the reference
  interpreter, whose visits join the runtime's counter.
* **Shared accounting.**  A single :class:`PlanRuntime` may be passed
  through several ``execute`` calls (the engine's projected evaluation
  runs one plan per view target); ``visits`` accumulates across them.

Row-space conventions: frontiers are ascending duplicate-free lists of
row ids; the virtual document node above the root (context of
absolute paths) is the pseudo-row ``-1``, whose subtree interval is
the whole table and whose only child is row 0.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import List, Optional

from repro.errors import XPathEvaluationError
from repro.obs.metrics import record as _metric_record
from repro.obs.profile import ProfileCollector, ProfileNode
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
from repro.xpath.evaluator import XPathEvaluator, _VirtualDocumentNode
from repro.xpath.fingerprint import bind_template, slot_index


class PlanRuntime:
    """Per-execution state: the columnar
    :class:`~repro.xmlmodel.store.NodeTable` (``None`` sends every
    execution to the interpreter fallback), the optional per-operator
    profile collector, and the accumulated visit counter.

    Attaching a ``profile`` (an :class:`~repro.obs.profile.ProfileCollector`)
    makes every operator report frontier sizes, chosen kernels, and
    qualifier short-circuits at batch granularity; with ``profile``
    left ``None`` the only instrumentation cost is one attribute check
    per operator invocation.

    Attaching a ``budget`` (a :class:`~repro.robustness.governor.Budget`)
    makes every operator run a cooperative limit checkpoint at the
    same batch granularity (plus a strided per-node wall-clock check
    inside the unbounded descendant scans), raising typed
    ``E_DEADLINE``/``E_BUDGET`` errors; left ``None``, the cost is the
    same single attribute check as an absent profile.

    ``params`` binds a template plan's slots
    (:func:`~repro.xpath.fingerprint.parameterize`): the constant of
    slot ``$_k`` is ``params[k]``, read by the equality operators when
    they run."""

    __slots__ = ("store", "visits", "profile", "budget", "params")

    def __init__(self, store=None, profile=None, budget=None, params=()):
        self.store = store
        self.visits = 0
        self.profile = profile
        self.budget = budget
        self.params = params

    def reset_counters(self) -> None:
        self.visits = 0

    def bound(self, param: Param, slot: Optional[int]):
        """The constant an equality operator compares with when its
        value is the parameter ``param`` (template slot ``slot``, or
        ``None``).  A slot binds to ``params[slot]``; a parameter that
        stays a parameter (no such slot, or a user-written one bound
        into the slot) is unbound."""
        params = self.params
        if slot is not None and slot < len(params):
            value = params[slot]
            if not isinstance(value, Param):
                return value
            param = value
        raise XPathEvaluationError(
            "unbound parameter $%s during evaluation" % param.name
        )


#: Pseudo-row of the virtual document node in columnar frontiers.
VIRTUAL_ROW = -1

#: Posting-vs-frontier crossover for the child-axis merge join: scan
#: the posting list (output already sorted) while it is at most this
#: many times larger than the frontier, else walk child links per
#: frontier row and sort the (small) result.
_CHILD_JOIN_FANOUT = 4


# ---------------------------------------------------------------------------
# Path operators
# ---------------------------------------------------------------------------


class _Op:
    __slots__ = ()

    def run_rows(self, rt: PlanRuntime, rows: List[int]) -> List[int]:
        """Columnar execution: map a sorted duplicate-free frontier of
        :class:`~repro.xmlmodel.store.NodeTable` rows to the sorted
        duplicate-free result frontier."""
        raise NotImplementedError


def _strip_virtual(rows: List[int]) -> List[int]:
    """Drop the leading pseudo-row ``-1`` (frontiers are sorted, so it
    can only sit at position 0)."""
    return rows[1:] if rows and rows[0] == VIRTUAL_ROW else rows


class EmptyOp(_Op):
    __slots__ = ()

    def run_rows(self, rt, rows):
        return []


class SelfOp(_Op):
    """``.`` — the epsilon path."""

    __slots__ = ()

    def run_rows(self, rt, rows):
        return rows


class LabelOp(_Op):
    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def run_rows(self, rt, rows):
        """Child step as a merge join between the frontier and the
        label's posting list: while the posting is small relative to
        the frontier, one pass over the posting with a parent-membership
        probe yields the (already sorted) answer; for large postings
        the kernel walks child links per frontier row instead."""
        store = rt.store
        rows_in = len(rows)
        label_id = store.label_index.get(self.name)
        if label_id is None or not rows:
            if rt.profile is not None:
                rt.profile.record(self, rows_in, 0, kernel="posting-miss")
            return []
        out: List[int] = []
        if rows[0] == VIRTUAL_ROW:
            rt.visits += 1
            if store.label_ids[0] == label_id:
                out.append(0)
            rows = rows[1:]
            if not rows:
                if rt.profile is not None:
                    rt.profile.record(
                        self, rows_in, len(out), kernel="root-probe"
                    )
                return out
        posting = store.postings[label_id]
        if len(posting) <= _CHILD_JOIN_FANOUT * len(rows) + 16:
            kernel = "posting-merge-join"
            members = set(rows)
            parent = store.parent
            append = out.append
            for row in posting:
                if parent[row] in members:
                    append(row)
            rt.visits += len(posting)
        else:
            kernel = "child-link-walk"
            first_child = store.first_child
            next_sibling = store.next_sibling
            label_ids = store.label_ids
            hits: List[int] = []
            for row in rows:
                child = first_child[row]
                while child != -1:
                    rt.visits += 1
                    if label_ids[child] == label_id:
                        hits.append(child)
                    child = next_sibling[child]
            hits.sort()
            out.extend(hits)
        budget = rt.budget
        if budget is not None:
            budget.checkpoint(rt.visits, len(out))
        if rt.profile is not None:
            rt.profile.record(self, rows_in, len(out), kernel=kernel)
        return out


class WildcardOp(_Op):
    __slots__ = ()

    def run_rows(self, rt, rows):
        store = rt.store
        rows_in = len(rows)
        out: List[int] = []
        if rows and rows[0] == VIRTUAL_ROW:
            rt.visits += 1
            out.append(0)
            rows = rows[1:]
        first_child = store.first_child
        next_sibling = store.next_sibling
        label_ids = store.label_ids
        text_label_id = store.text_label_id
        hits: List[int] = []
        for row in rows:
            child = first_child[row]
            while child != -1:
                rt.visits += 1
                if label_ids[child] != text_label_id:
                    hits.append(child)
                child = next_sibling[child]
        hits.sort()
        out.extend(hits)
        budget = rt.budget
        if budget is not None:
            budget.checkpoint(rt.visits, len(out))
        if rt.profile is not None:
            rt.profile.record(self, rows_in, len(out), kernel="child-link-walk")
        return out


class TextOp(_Op):
    __slots__ = ()

    def run_rows(self, rt, rows):
        store = rt.store
        rows_in = len(rows)
        rows = _strip_virtual(rows)  # the virtual node has no text child
        first_child = store.first_child
        next_sibling = store.next_sibling
        label_ids = store.label_ids
        text_label_id = store.text_label_id
        hits: List[int] = []
        for row in rows:
            child = first_child[row]
            while child != -1:
                rt.visits += 1
                if label_ids[child] == text_label_id:
                    hits.append(child)
                child = next_sibling[child]
        hits.sort()
        budget = rt.budget
        if budget is not None:
            budget.checkpoint(rt.visits, len(hits))
        if rt.profile is not None:
            rt.profile.record(self, rows_in, len(hits), kernel="child-link-walk")
        return hits


class ParentOp(_Op):
    __slots__ = ()

    def run_rows(self, rt, rows):
        store = rt.store
        parent = store.parent
        seen = set()
        out: List[int] = []
        for row in rows:
            rt.visits += 1
            if row == VIRTUAL_ROW:
                continue
            up = parent[row]
            # the root's parent is the virtual document node: excluded,
            # matching the interpreter
            if up != VIRTUAL_ROW and up not in seen:
                seen.add(up)
                out.append(up)
        out.sort()
        budget = rt.budget
        if budget is not None:
            budget.checkpoint(rt.visits, len(out))
        if rt.profile is not None:
            rt.profile.record(self, len(rows), len(out), kernel="parent-links")
        return out


class SlashOp(_Op):
    __slots__ = ("left", "right")

    def __init__(self, left: _Op, right: _Op):
        self.left = left
        self.right = right

    def run_rows(self, rt, rows):
        return self.right.run_rows(rt, self.left.run_rows(rt, rows))


class DescendantOp(_Op):
    """``//p``: when the inner path has the ``label[q1][q2]...`` shape,
    slices the label's posting list with two binary searches per
    context span; otherwise scans the spans and runs ``inner`` on the
    descendant-or-self frontier."""

    __slots__ = ("inner", "fast_label", "fast_qualifiers")

    def __init__(self, inner: _Op, fast_label: Optional[str], fast_qualifiers):
        self.inner = inner
        self.fast_label = fast_label
        self.fast_qualifiers = tuple(fast_qualifiers)

    def run_rows(self, rt, rows):
        """``//``-step as an interval join: the (nested-or-disjoint)
        subtree intervals of the frontier merge into disjoint spans in
        one pass over the sorted frontier, then the ``label`` fast
        shape slices the label's posting list with two binary searches
        per span — a chain ``//a//b`` therefore touches only posting
        entries, never the tree."""
        if not rows:
            if rt.profile is not None:
                rt.profile.record(self, 0, 0)
            return []
        store = rt.store
        if self.fast_label is not None:
            label_id = store.label_index.get(self.fast_label)
            if label_id is None:
                if rt.profile is not None:
                    rt.profile.record(
                        self, len(rows), 0, kernel="posting-miss"
                    )
                return []
            posting = store.postings[label_id]
            base: List[int] = []
            covered_end = VIRTUAL_ROW  # exclusive end of merged spans
            end = store.end
            label_ids = store.label_ids
            text_label_id = store.text_label_id
            for row in rows:
                if row == VIRTUAL_ROW:
                    span_start, span_end = VIRTUAL_ROW, store.size
                else:
                    if label_ids[row] == text_label_id:
                        continue  # text contexts have no descendants
                    if row < covered_end:
                        continue  # nested inside an earlier span
                    span_start, span_end = row, end[row]
                low = bisect_right(posting, span_start)  # proper: exclude self
                high = bisect_left(posting, span_end)
                base.extend(posting[low:high])
                covered_end = span_end
            rt.visits += len(base)
            budget = rt.budget
            if budget is not None:
                budget.checkpoint(rt.visits, len(base))
            results = base
            for qualifier in self.fast_qualifiers:
                results = [
                    row for row in results if qualifier.test_row(rt, row)
                ]
            if rt.profile is not None:
                rt.profile.record(
                    self,
                    len(rows),
                    len(results),
                    kernel="interval-posting-join",
                )
            return results
        # generic inner path: materialize the descendant-or-self
        # element frontier from the merged spans, then run the inner
        # operator set-at-a-time on it
        budget = rt.budget
        frontier: List[int] = []
        covered_end = VIRTUAL_ROW
        end = store.end
        label_ids = store.label_ids
        text_label_id = store.text_label_id
        for row in rows:
            if row == VIRTUAL_ROW:
                frontier.append(VIRTUAL_ROW)
                span_start, span_end = 0, store.size
            else:
                if label_ids[row] == text_label_id:
                    continue
                if row < covered_end:
                    continue
                span_start, span_end = row, end[row]
            for candidate in range(span_start, span_end):
                if budget is not None:
                    budget.tick()
                if label_ids[candidate] != text_label_id:
                    frontier.append(candidate)
            covered_end = span_end
        rt.visits += len(frontier)
        if budget is not None:
            budget.checkpoint(rt.visits, len(frontier))
        results = self.inner.run_rows(rt, frontier)
        if rt.profile is not None:
            rt.profile.record(
                self, len(rows), len(results), kernel="interval-scan"
            )
        return results


class UnionOp(_Op):
    __slots__ = ("branches",)

    def __init__(self, branches):
        self.branches = tuple(branches)

    def run_rows(self, rt, rows):
        """Union as a sorted merge of the branch frontiers."""
        outputs = [branch.run_rows(rt, rows) for branch in self.branches]
        outputs = [out for out in outputs if out]
        if not outputs:
            merged: List[int] = []
        elif len(outputs) == 1:
            merged = outputs[0]
        else:
            merged = _merge_sorted(outputs)
        budget = rt.budget
        if budget is not None:
            budget.checkpoint(rt.visits, len(merged))
        if rt.profile is not None:
            rt.profile.record(
                self, len(rows), len(merged), kernel="sorted-merge"
            )
        return merged


class FilterOp(_Op):
    """``p[q]``."""

    __slots__ = ("path", "qualifier")

    def __init__(self, path: _Op, qualifier: "_QOp"):
        self.path = path
        self.qualifier = qualifier

    def run_rows(self, rt, rows):
        """Batched qualification: the qualifier runs once per candidate
        of the *frontier* (with and/or short-circuiting inside
        ``test_row``), never per recursive visit."""
        store = rt.store
        label_ids = store.label_ids
        text_label_id = store.text_label_id
        qualifier = self.qualifier
        candidates = self.path.run_rows(rt, rows)
        results = [
            row
            for row in candidates
            if (row == VIRTUAL_ROW or label_ids[row] != text_label_id)
            and qualifier.test_row(rt, row)
        ]
        budget = rt.budget
        if budget is not None:
            budget.checkpoint(rt.visits, len(results))
        if rt.profile is not None:
            rt.profile.record(self, len(candidates), len(results))
        return results


class AbsoluteOp(_Op):
    __slots__ = ("inner",)

    def __init__(self, inner: _Op):
        self.inner = inner

    def run_rows(self, rt, rows):
        # all covered rows share one tree, so the root set collapses to
        # the single virtual document pseudo-row
        if not rows:
            if rt.profile is not None:
                rt.profile.record(self, 0, 0)
            return []
        results = self.inner.run_rows(rt, [VIRTUAL_ROW])
        if rt.profile is not None:
            rt.profile.record(self, len(rows), len(results))
        return results


def _merge_sorted(outputs: List[List[int]]) -> List[int]:
    """Merge ascending duplicate-free row lists into one."""
    merged = set()
    for out in outputs:
        merged.update(out)
    return sorted(merged)


# ---------------------------------------------------------------------------
# Qualifier operators
# ---------------------------------------------------------------------------


class _QOp:
    __slots__ = ()

    def test_row(self, rt: PlanRuntime, row: int) -> bool:
        """Columnar qualification of one candidate row; nested paths
        run through the columnar kernels."""
        raise NotImplementedError


class BoolQOp(_QOp):
    __slots__ = ("value",)

    def __init__(self, value: bool):
        self.value = value

    def test_row(self, rt, row):
        return self.value


class ExistsQOp(_QOp):
    __slots__ = ("path",)

    def __init__(self, path: _Op):
        self.path = path

    def test_row(self, rt, row):
        passed = bool(self.path.run_rows(rt, [row]))
        if rt.profile is not None:
            rt.profile.record(self, 1, 1 if passed else 0)
        return passed


class EqualsQOp(_QOp):
    __slots__ = ("path", "value", "slot")

    def __init__(self, path: _Op, value):
        self.path = path
        self.value = value
        self.slot = slot_index(value)

    def test_row(self, rt, row):
        value = self.value
        if isinstance(value, Param):
            value = rt.bound(value, self.slot)
        store = rt.store
        passed = False
        for selected in self.path.run_rows(rt, [row]):
            rt.visits += 1
            if selected == VIRTUAL_ROW:
                selected = 0  # the virtual node's string-value is the root's
            if store.string_value(selected) == value:
                passed = True
                break
        if rt.profile is not None:
            rt.profile.record(self, 1, 1 if passed else 0)
        return passed


class AttrQOp(_QOp):
    __slots__ = ("path", "name")

    def __init__(self, path: _Op, name: str):
        self.path = path
        self.name = name

    def test_row(self, rt, row):
        name = self.name
        store = rt.store
        nodes = store.nodes
        label_ids = store.label_ids
        text_label_id = store.text_label_id
        passed = False
        for selected in self.path.run_rows(rt, [row]):
            rt.visits += 1
            if (
                selected != VIRTUAL_ROW  # the virtual node has no attributes
                and label_ids[selected] != text_label_id
                and name in nodes[selected].attributes
            ):
                passed = True
                break
        if rt.profile is not None:
            rt.profile.record(self, 1, 1 if passed else 0)
        return passed


class AttrEqualsQOp(_QOp):
    __slots__ = ("path", "name", "value", "slot")

    def __init__(self, path: _Op, name: str, value):
        self.path = path
        self.name = name
        self.value = value
        self.slot = slot_index(value)

    def test_row(self, rt, row):
        value = self.value
        if isinstance(value, Param):
            value = rt.bound(value, self.slot)
        name = self.name
        store = rt.store
        nodes = store.nodes
        label_ids = store.label_ids
        text_label_id = store.text_label_id
        passed = False
        for selected in self.path.run_rows(rt, [row]):
            rt.visits += 1
            if (
                selected != VIRTUAL_ROW
                and label_ids[selected] != text_label_id
                and nodes[selected].attributes.get(name) == value
            ):
                passed = True
                break
        if rt.profile is not None:
            rt.profile.record(self, 1, 1 if passed else 0)
        return passed


class AndQOp(_QOp):
    __slots__ = ("left", "right")

    def __init__(self, left: _QOp, right: _QOp):
        self.left = left
        self.right = right

    def test_row(self, rt, row):
        if not self.left.test_row(rt, row):
            if rt.profile is not None:
                rt.profile.short_circuit(self)
            return False
        return self.right.test_row(rt, row)


class OrQOp(_QOp):
    __slots__ = ("left", "right")

    def __init__(self, left: _QOp, right: _QOp):
        self.left = left
        self.right = right

    def test_row(self, rt, row):
        if self.left.test_row(rt, row):
            if rt.profile is not None:
                rt.profile.short_circuit(self)
            return True
        return self.right.test_row(rt, row)


class NotQOp(_QOp):
    __slots__ = ("inner",)

    def __init__(self, inner: _QOp):
        self.inner = inner

    def test_row(self, rt, row):
        return not self.inner.test_row(rt, row)


# ---------------------------------------------------------------------------
# Compilation
# ---------------------------------------------------------------------------

# NOTE: stateless operators (SelfOp, WildcardOp, ...) used to be shared
# module singletons; compilation now allocates fresh instances so that
# profile collectors — which key operator stats by identity — attribute
# work to one plan position each.  Plans are cached, so the extra
# allocations happen once per distinct query.


def _peel_label(inner):
    """Decompose ``Label`` / ``Label[q1][q2]...`` into (label name,
    qualifiers); (None, ()) when the shape does not match."""
    qualifiers = []
    current = inner
    while isinstance(current, Qualified):
        qualifiers.append(current.qualifier)
        current = current.path
    if isinstance(current, Label):
        return current.name, tuple(reversed(qualifiers))
    return None, ()


def _compile_path(path: Path) -> _Op:
    if isinstance(path, Empty):
        return EmptyOp()
    if isinstance(path, EpsilonPath):
        return SelfOp()
    if isinstance(path, Label):
        return LabelOp(path.name)
    if isinstance(path, Wildcard):
        return WildcardOp()
    if isinstance(path, TextStep):
        return TextOp()
    if isinstance(path, Parent):
        return ParentOp()
    if isinstance(path, Slash):
        return SlashOp(_compile_path(path.left), _compile_path(path.right))
    if isinstance(path, Descendant):
        label, qualifiers = _peel_label(path.inner)
        return DescendantOp(
            _compile_path(path.inner),
            label,
            [_compile_qualifier(qualifier) for qualifier in qualifiers],
        )
    if isinstance(path, Union):
        return UnionOp(_compile_path(branch) for branch in path.branches)
    if isinstance(path, Qualified):
        return FilterOp(
            _compile_path(path.path), _compile_qualifier(path.qualifier)
        )
    if isinstance(path, Absolute):
        return AbsoluteOp(_compile_path(path.inner))
    raise XPathEvaluationError("unknown path node %r" % path)


def _compile_qualifier(qualifier: Qualifier) -> _QOp:
    if isinstance(qualifier, QBool):
        return BoolQOp(qualifier.value)
    if isinstance(qualifier, QPath):
        return ExistsQOp(_compile_path(qualifier.path))
    if isinstance(qualifier, QEquals):
        return EqualsQOp(_compile_path(qualifier.path), qualifier.value)
    if isinstance(qualifier, QAttr):
        return AttrQOp(_compile_path(qualifier.path), qualifier.name)
    if isinstance(qualifier, QAttrEquals):
        return AttrEqualsQOp(
            _compile_path(qualifier.path), qualifier.name, qualifier.value
        )
    if isinstance(qualifier, QAnd):
        return AndQOp(
            _compile_qualifier(qualifier.left),
            _compile_qualifier(qualifier.right),
        )
    if isinstance(qualifier, QOr):
        return OrQOp(
            _compile_qualifier(qualifier.left),
            _compile_qualifier(qualifier.right),
        )
    if isinstance(qualifier, QNot):
        return NotQOp(_compile_qualifier(qualifier.inner))
    raise XPathEvaluationError("unknown qualifier node %r" % qualifier)


class CompiledPlan:
    """An executable plan for one :class:`~repro.xpath.ast.Path`.

    A plan is immutable and document-independent: compile once per
    (rewritten, optimized) query, execute against any document's
    NodeTable."""

    __slots__ = ("path", "_op", "operator_count")

    def __init__(self, path: Path):
        self.path = path
        self._op = _compile_path(path)
        self.operator_count = _count_ops(self._op)

    def __repr__(self):
        return "CompiledPlan(%s, operators=%d)" % (
            self.path,
            self.operator_count,
        )

    def profile(
        self, collector: ProfileCollector, params: tuple = ()
    ) -> ProfileNode:
        """The EXPLAIN ANALYZE tree of this plan: its operator tree
        annotated with the stats ``collector`` gathered during
        execution(s) run with ``PlanRuntime(profile=collector)``;
        equality operators show the constants ``params`` bound."""
        return build_profile_node(self._op, collector, params)

    def execute(
        self,
        context,
        runtime: Optional[PlanRuntime] = None,
        store=None,
    ) -> List:
        """Evaluate the plan at a context node (or list of nodes);
        results come back duplicate-free in document order.

        Pass a :class:`PlanRuntime` to share visit accounting (and the
        store) across several plan executions; otherwise a fresh
        runtime wrapping ``store`` is used.

        The plan runs its columnar kernels over the runtime's
        :class:`~repro.xmlmodel.store.NodeTable`.  Without a store, or
        for contexts the store does not cover (e.g. nodes of a
        different tree), the reference interpreter answers instead."""
        rt = runtime if runtime is not None else PlanRuntime(store)
        contexts = context if isinstance(context, list) else [context]
        store = rt.store
        rows = self._rows_for(store, contexts) if store is not None else None
        if rows is None:
            return self._interpret(rt, contexts)
        nodes = store.nodes
        return [
            nodes[row]
            for row in self._op.run_rows(rt, rows)
            if row != VIRTUAL_ROW
        ]

    def execute_rows(self, runtime: PlanRuntime, rows: List[int]) -> List[int]:
        """Columnar execution from a sorted duplicate-free frontier of
        ``runtime.store`` rows: the result rows, in document order
        (never the virtual document pseudo-row)."""
        return _strip_virtual(self._op.run_rows(runtime, rows))

    def _interpret(self, rt: PlanRuntime, contexts: List) -> List:
        """The fallback: the reference interpreter evaluates the plan's
        source path (observable — it is the usual reason a query runs
        unexpectedly slow)."""
        if rt.profile is not None:
            rt.profile.event("interpreter-fallback")
        _metric_record("plan.interpreter_fallbacks")
        evaluator = XPathEvaluator(budget=rt.budget)
        path = bind_template(self.path, rt.params)
        results = evaluator.evaluate(path, contexts, ordered=True)
        rt.visits += evaluator.visits
        return results

    @staticmethod
    def _rows_for(store, contexts) -> Optional[List[int]]:
        """Map context nodes to a sorted duplicate-free row frontier;
        ``None`` when any context lies outside the store's tree (the
        caller then falls back to the interpreter)."""
        rows = set()
        for node in contexts:
            if isinstance(node, _VirtualDocumentNode):
                root = node.children[0]
                if store.row(root) != 0:
                    return None
                rows.add(VIRTUAL_ROW)
            else:
                row = store.row(node)
                if row is None:
                    return None
                rows.add(row)
        return sorted(rows)


# ---------------------------------------------------------------------------
# Profiling support (EXPLAIN ANALYZE)
# ---------------------------------------------------------------------------


def _shown_value(op, params: tuple):
    """An equality operator's constant as its execution compared it:
    a template slot shows the value ``params`` bound to it."""
    slot = op.slot
    if slot is not None and slot < len(params):
        return params[slot]
    return op.value


def _describe_op(op, params: tuple = ()):
    """``(name, detail)`` labels of one operator for profile trees."""
    if isinstance(op, LabelOp):
        return ("child", op.name)
    if isinstance(op, WildcardOp):
        return ("child", "*")
    if isinstance(op, TextOp):
        return ("text()", "")
    if isinstance(op, ParentOp):
        return ("parent", "..")
    if isinstance(op, SelfOp):
        return ("self", ".")
    if isinstance(op, EmptyOp):
        return ("empty", "")
    if isinstance(op, SlashOp):
        return ("slash", "")
    if isinstance(op, DescendantOp):
        if op.fast_label is not None:
            return ("descendant", "//" + op.fast_label)
        return ("descendant", "//(generic)")
    if isinstance(op, UnionOp):
        return ("union", "%d branches" % len(op.branches))
    if isinstance(op, FilterOp):
        return ("filter", "")
    if isinstance(op, AbsoluteOp):
        return ("absolute", "/")
    if isinstance(op, BoolQOp):
        return ("q:bool", "true" if op.value else "false")
    if isinstance(op, ExistsQOp):
        return ("q:exists", "")
    if isinstance(op, EqualsQOp):
        return ("q:equals", "= %r" % (_shown_value(op, params),))
    if isinstance(op, AttrQOp):
        return ("q:attr", "@" + op.name)
    if isinstance(op, AttrEqualsQOp):
        return (
            "q:attr-equals",
            "@%s = %r" % (op.name, _shown_value(op, params)),
        )
    if isinstance(op, AndQOp):
        return ("q:and", "")
    if isinstance(op, OrQOp):
        return ("q:or", "")
    if isinstance(op, NotQOp):
        return ("q:not", "")
    return (type(op).__name__, "")


def _op_children(op):
    """Sub-operators in display order (mirrors execution structure)."""
    if isinstance(op, SlashOp):
        return (op.left, op.right)
    if isinstance(op, DescendantOp):
        # the peeled fast shape runs ``fast_qualifiers`` directly; the
        # generic ``inner`` path runs when no fast path applies — both
        # are shown, unexecuted branches render without sample counts
        if op.fast_qualifiers:
            return (op.inner,) + op.fast_qualifiers
        return (op.inner,)
    if isinstance(op, UnionOp):
        return op.branches
    if isinstance(op, FilterOp):
        return (op.path, op.qualifier)
    if isinstance(op, AbsoluteOp):
        return (op.inner,)
    if isinstance(op, (ExistsQOp, EqualsQOp, AttrQOp, AttrEqualsQOp)):
        return (op.path,)
    if isinstance(op, (AndQOp, OrQOp)):
        return (op.left, op.right)
    if isinstance(op, NotQOp):
        return (op.inner,)
    return ()


def build_profile_node(
    op, collector: ProfileCollector, params: tuple = ()
) -> ProfileNode:
    """Pair one operator subtree with its collected execution stats."""
    name, detail = _describe_op(op, params)
    return ProfileNode(
        name,
        detail,
        collector.lookup(op),
        [
            build_profile_node(child, collector, params)
            for child in _op_children(op)
        ],
    )


def _count_ops(op) -> int:
    count = 1
    for slot in getattr(type(op), "__slots__", ()):
        value = getattr(op, slot)
        if isinstance(value, (_Op, _QOp)):
            count += _count_ops(value)
        elif isinstance(value, tuple):
            count += sum(
                _count_ops(item)
                for item in value
                if isinstance(item, (_Op, _QOp))
            )
    return count


def compile_path(path: Path) -> CompiledPlan:
    """Compile ``path`` into an executable :class:`CompiledPlan`."""
    return CompiledPlan(path)
