"""Projection of query results through a security view, columnar.

Accessibility (Section 3.2, Prop. 3.1) is one top-down pass per
(policy, document).  :func:`accessibility_column` runs it once over a
document's :class:`~repro.xmlmodel.store.NodeTable` and stores the
answer as a ``bytearray`` indexed by preorder row.  The engine keeps
that column per (policy, document) and builds one :class:`Projector`
per query from it, so projecting ``n`` results costs O(output) plus
one column build, not ``n`` whole-document passes.

The reference materializer (:func:`repro.core.materialize.materialize`)
computes accessibility itself and imports nothing from this module,
so it stays an independent oracle for the answers projected here.
"""

from __future__ import annotations

from operator import itemgetter
from typing import List

from repro.core.materialize import ViewExpander
from repro.core.spec import ANN_N, ANN_Y, AccessSpec, CondAnnotation
from repro.xpath.evaluator import XPathEvaluator

_ROW = itemgetter(0)


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


class Projector(ViewExpander):
    """One query's projection through ``view``: the Section 3.3 rules
    of :class:`~repro.core.materialize.ViewExpander`, with
    accessibility read from ``column`` and document order taken from
    the NodeTable row id.

    Sigma evaluation's visits accumulate over the query.  Given the
    query's plan ``runtime``, they continue the plans' count and are
    written back to it, so ``max_visits`` bounds plans and projection
    together (charged again after each projected subtree) and the
    runtime's ``visits`` is their sum."""

    def __init__(
        self, store, column: bytearray, view, budget=None, runtime=None
    ):
        super().__init__(view, budget=budget)
        self._row = store.row
        self._column = column
        self._runtime = runtime

    def project(self, key: str, origin):
        runtime = self._runtime
        if runtime is None:
            return super().project(key, origin)
        self.evaluator.visits = runtime.visits
        element = super().project(key, origin)
        runtime.visits = visits = self.evaluator.visits
        if self.budget is not None:
            self.budget.charge_visits(visits)
        return element

    def _select(self, nodes: List, dummy: bool) -> List:
        row_of = self._row
        column = self._column
        keyed = []
        for node in nodes:
            if not node.is_element:
                continue
            row = row_of(node)
            if row is None:  # not in the document: never accessible
                if not dummy:
                    continue
                row = -1
            elif not dummy and not column[row]:
                continue
            keyed.append((row, node))
        keyed.sort(key=_ROW)
        return [node for _, node in keyed]
