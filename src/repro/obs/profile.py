"""Per-operator execution profiles: the EXPLAIN ANALYZE substrate.

A compiled plan (:mod:`repro.xpath.plan`) is a tree of operators whose
runtime choices — posting merge-join vs child-link walk, interval join
vs interval scan, interpreter fallback — are invisible from the
outside.  When a query runs with ``ExecutionOptions(trace=True)`` the
engine attaches a :class:`ProfileCollector` to the plan runtime; every
operator then reports each invocation (frontier rows in, rows out, the
kernel it chose, qualifier short-circuits) at batch granularity.

After execution the engine pairs the collected stats with the plan's
operator tree into an :class:`ExplainProfile` — a tree of
:class:`ProfileNode` mirroring the plan shape — exposed as
``QueryResult.report.profile`` with an EXPLAIN ANALYZE-style text
rendering (:meth:`ExplainProfile.render`) and a JSON-safe
:meth:`ExplainProfile.to_dict` for benchmark harnesses.

Collection is strictly opt-in: with no collector attached the only
cost left in the kernels is one ``rt.profile is not None`` check per
operator invocation (set-at-a-time, so per *batch*, not per node).
"""

from __future__ import annotations

from typing import Dict, List, Optional

__all__ = [
    "OperatorStats",
    "ProfileCollector",
    "ProfileNode",
    "ExplainProfile",
]


class OperatorStats:
    """Accumulated execution counters of one plan operator."""

    __slots__ = ("calls", "rows_in", "rows_out", "kernels", "short_circuits")

    def __init__(self):
        self.calls = 0
        self.rows_in = 0
        self.rows_out = 0
        #: kernel name -> times chosen (an operator may pick different
        #: kernels on different invocations, e.g. by fanout heuristic)
        self.kernels: Dict[str, int] = {}
        #: and/or evaluations answered without the right operand
        self.short_circuits = 0

    @property
    def selectivity(self) -> float:
        """rows_out / rows_in (1.0 when nothing flowed in)."""
        return self.rows_out / self.rows_in if self.rows_in else 1.0

    def as_dict(self) -> dict:
        out: dict = {
            "calls": self.calls,
            "rows_in": self.rows_in,
            "rows_out": self.rows_out,
        }
        if self.kernels:
            out["kernels"] = dict(self.kernels)
        if self.short_circuits:
            out["short_circuits"] = self.short_circuits
        return out

    def __repr__(self):
        return "OperatorStats(calls=%d, rows_in=%d, rows_out=%d)" % (
            self.calls,
            self.rows_in,
            self.rows_out,
        )


class ProfileCollector:
    """Gathers :class:`OperatorStats` keyed by operator identity, plus
    plan-level events (e.g. ``interpreter-fallback``).

    The collector holds no reference to the operators themselves; the
    plan stays alive for the duration of the execution, so ``id()``
    keys are stable."""

    __slots__ = ("_stats", "events")

    def __init__(self):
        self._stats: Dict[int, OperatorStats] = {}
        self.events: Dict[str, int] = {}

    def stats_for(self, op) -> OperatorStats:
        stats = self._stats.get(id(op))
        if stats is None:
            stats = OperatorStats()
            self._stats[id(op)] = stats
        return stats

    def record(self, op, rows_in: int, rows_out: int, kernel: Optional[str] = None):
        """One operator invocation: frontier sizes and chosen kernel."""
        stats = self.stats_for(op)
        stats.calls += 1
        stats.rows_in += rows_in
        stats.rows_out += rows_out
        if kernel is not None:
            stats.kernels[kernel] = stats.kernels.get(kernel, 0) + 1

    def short_circuit(self, op) -> None:
        self.stats_for(op).short_circuits += 1

    def event(self, name: str, amount: int = 1) -> None:
        self.events[name] = self.events.get(name, 0) + amount

    def lookup(self, op) -> Optional[OperatorStats]:
        """The stats of an operator, ``None`` if it never ran."""
        return self._stats.get(id(op))

    def __len__(self) -> int:
        return len(self._stats)


class ProfileNode:
    """One operator (or grouping) node of an explain profile tree."""

    __slots__ = ("name", "detail", "stats", "children")

    def __init__(
        self,
        name: str,
        detail: str = "",
        stats: Optional[OperatorStats] = None,
        children: Optional[List["ProfileNode"]] = None,
    ):
        self.name = name
        self.detail = detail
        self.stats = stats
        self.children = children if children is not None else []

    def to_dict(self) -> dict:
        out: dict = {"operator": self.name}
        if self.detail:
            out["detail"] = self.detail
        if self.stats is not None:
            out.update(self.stats.as_dict())
        if self.children:
            out["children"] = [child.to_dict() for child in self.children]
        return out

    def _lines(self, indent: int) -> List[str]:
        label = self.name if not self.detail else "%s %s" % (self.name, self.detail)
        stats = self.stats
        if stats is None and self.children:
            # structural grouping (slash, projection target): the
            # children carry the numbers
            annotation = ""
        elif stats is None or stats.calls == 0:
            annotation = "(never executed)"
        else:
            parts = [
                "calls=%d" % stats.calls,
                "rows=%d->%d" % (stats.rows_in, stats.rows_out),
            ]
            if stats.kernels:
                parts.append(
                    "kernel=%s"
                    % ",".join(
                        "%s:%d" % kv for kv in sorted(stats.kernels.items())
                    )
                )
            if stats.short_circuits:
                parts.append("short_circuits=%d" % stats.short_circuits)
            annotation = "(%s)" % " ".join(parts)
        line = "%s-> %s" % ("  " * indent, label)
        if annotation:
            line += "  " + annotation
        lines = [line]
        for child in self.children:
            lines.extend(child._lines(indent + 1))
        return lines

    def render(self, indent: int = 0) -> str:
        return "\n".join(self._lines(indent))

    def __repr__(self):
        return "ProfileNode(%r, children=%d)" % (self.name, len(self.children))


class ExplainProfile:
    """The full EXPLAIN ANALYZE artifact of one query execution: one
    operator tree per executed plan (projected evaluation runs one plan
    per view target) plus plan-level events."""

    __slots__ = ("query", "roots", "events")

    def __init__(
        self,
        query: str,
        roots: Optional[List[ProfileNode]] = None,
        events: Optional[Dict[str, int]] = None,
    ):
        self.query = query
        self.roots = roots if roots is not None else []
        self.events = dict(events) if events else {}

    def to_dict(self) -> dict:
        out: dict = {
            "query": self.query,
            "plans": [root.to_dict() for root in self.roots],
        }
        if self.events:
            out["events"] = dict(self.events)
        return out

    def render(self) -> str:
        """EXPLAIN ANALYZE-style annotated plan tree."""
        lines = ["EXPLAIN ANALYZE"]
        lines.append("query: %s" % self.query)
        for root in self.roots:
            lines.append(root.render())
        for name, count in sorted(self.events.items()):
            lines.append("event: %s x%d" % (name, count))
        return "\n".join(lines)

    def __repr__(self):
        return "ExplainProfile(%r, plans=%d)" % (self.query, len(self.roots))
