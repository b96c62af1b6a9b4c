"""Cache and memory introspection: what the engine's caches hold.

Every serving-path cache in :class:`~repro.core.engine.SecureQueryEngine`
trades memory for latency — the plan cache, the per-document columnar
:class:`~repro.xmlmodel.store.NodeTable`, the per-(policy, document)
accessibility columns beside it, and the security canary's oracle
view trees; the compile memos are counted too.  A view-selection
policy (and an operator sizing a deployment) needs to see that trade:
entry counts, byte costs, and hit/eviction counters, in one JSON-safe
report.

Byte figures are **estimates with stated precision**: fixed-width
array columns are exact (``itemsize * len``), container overheads use
``sys.getsizeof``, and object trees (cached ASTs, materialized view
subtrees) are node counts times a per-node constant — Python object
graphs have no cheap exact answer, and a stable estimate beats an
O(heap) traversal on a debug endpoint.

The entry point is :func:`engine_report` (surfaced as
``engine.introspect()``, ``GET /debug/cachez``, and the ``cache.*``
Prometheus gauges in :mod:`repro.obs.export`).
"""

from __future__ import annotations

import sys
from typing import Dict

__all__ = [
    "AST_NODE_BYTES",
    "XML_NODE_BYTES",
    "plan_cache_report",
    "engine_report",
    "report_total_bytes",
]

#: Estimated resident bytes per cached AST node: one slotted Python
#: object plus its interned hash and child references.
AST_NODE_BYTES = 96

#: Estimated resident bytes per materialized XML node (element or text
#: leaf): object header, label/value string share, children list slot.
XML_NODE_BYTES = 160


def _entry_bytes(entry) -> int:
    """Estimated bytes of one plan-cache entry: the template text, the
    three pipeline ASTs, and each per-target plan sized by the path it
    runs — all as node counts times :data:`AST_NODE_BYTES`."""
    total = sys.getsizeof(entry.template_text)
    trees = [entry.template, entry.rewritten, entry.optimized]
    trees.extend(plan.path for _, _, plan in entry.plans)
    for tree in trees:
        total += tree.size() * AST_NODE_BYTES
    return total


def plan_cache_report(cache) -> Dict[str, object]:
    """Entry count, byte estimate, and full hit/miss/eviction counters
    of one :class:`~repro.core.plancache.PlanCache`."""
    stats = cache.stats().as_dict()
    entries = cache.entries()
    fingerprints = set()
    total = 0
    for entry in entries:
        total += _entry_bytes(entry)
        fingerprint = getattr(entry, "fingerprint", None)
        if fingerprint is not None:
            fingerprints.add(str(fingerprint))
    report = dict(stats)
    report["bytes"] = total
    report["entries"] = len(entries)
    report["distinct_fingerprints"] = len(fingerprints)
    return report


def engine_report(engine) -> Dict[str, object]:
    """The one-stop cache report of a
    :class:`~repro.core.engine.SecureQueryEngine`: plan cache, columnar
    NodeTables, per-policy accessibility columns and the canary's
    oracle view trees, each with entry counts and byte estimates, the
    entry count of the rewriters' and optimizer's memos, and a
    ``total_bytes`` roll-up."""
    plan_cache = plan_cache_report(engine.plan_cache)

    stores = list(engine._stores.values())
    node_tables = {
        "entries": len(stores),
        "rows": sum(store.size for _, store in stores),
        "bytes": sum(store.nbytes() for _, store in stores),
    }

    # one byte per NodeTable row, per (policy, document)
    columns = [
        column
        for policy in list(engine._policies.values())
        for _, column in list(policy.columns.values())
    ]
    accessibility_columns = {
        "entries": len(columns),
        "bytes": sum(len(column) for column in columns),
    }

    canary = engine.canary
    views = canary.views() if canary is not None else []
    per_policy: Dict[str, int] = {}
    for policy, _ in views:
        per_policy[policy.name] = per_policy.get(policy.name, 0) + 1
    view_nodes = sum(tree.size() for _, tree in views)
    oracle_views = {
        "entries": len(views),
        "nodes": view_nodes,
        "bytes": view_nodes * XML_NODE_BYTES,
        "by_policy": dict(sorted(per_policy.items())),
    }

    # the optimizer's and each rewriter's dynamic-program memo: each
    # lives for one compile call, so this stays one query's worth
    memos = [engine._optimizer] + [
        rewriter
        for policy in list(engine._policies.values())
        for rewriter in list(policy.rewriters.values())
    ]
    compile_memos = {
        "entries": sum(memo.memo_entries() for memo in memos),
    }

    report = {
        "plan_cache": plan_cache,
        "node_tables": node_tables,
        "accessibility_columns": accessibility_columns,
        "canary_oracle_views": oracle_views,
        "compile_memos": compile_memos,
    }
    report["total_bytes"] = report_total_bytes(report)
    return report


def report_total_bytes(report: Dict[str, object]) -> int:
    """Sum of the ``bytes`` fields of an :func:`engine_report` (or any
    mapping of cache-name -> report-with-bytes)."""
    return sum(
        section["bytes"]
        for section in report.values()
        if isinstance(section, dict) and "bytes" in section
    )
