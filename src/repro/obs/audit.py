"""Querying an audit trail: filters and per-policy accounting.

An :class:`AuditLog` wraps a sequence of events — live from a
:class:`~repro.obs.events.RingBufferSink`, or re-parsed from a JSONL
file written by :class:`~repro.obs.events.JsonlFileSink` — and
answers the questions an auditor or SRE actually asks:

* *what happened* — :meth:`AuditLog.events` filters by policy, event
  kind, and time window; :meth:`AuditLog.tail` shows the latest N;
* *how is each policy behaving* — :meth:`AuditLog.stats` aggregates
  per policy: query count, cache hits, denials, errors, canary
  checks/violations, and latency count/mean/p50/p95/max (exact
  nearest-rank percentiles, :func:`repro.obs.percentile`).

The CLI surfaces both as ``repro audit tail`` / ``repro audit stats``.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional

from repro.obs.events import Event, RingBufferSink, read_jsonl
from repro.obs.metrics import percentile

__all__ = ["AuditLog"]


#: The per-policy counters of :meth:`AuditLog.stats`, in report order.
_COUNTERS = (
    "queries", "cache_hits", "slow", "denials", "errors",
    "canary_checks", "canary_violations",
)

#: Event kind -> the counter one event of that kind increments.
_COUNTED_KINDS = {
    "query": "queries",
    "denial": "denials",
    "error": "errors",
    "canary": "canary_checks",
}


class AuditLog:
    """An in-memory, queryable view over an event sequence."""

    __slots__ = ("_events",)

    def __init__(self, events: Iterable[Event] = ()):
        self._events: List[Event] = list(events)

    @classmethod
    def from_jsonl(cls, path) -> "AuditLog":
        """Load the JSONL trail written by ``JsonlFileSink`` (or
        ``repro query --audit-log``)."""
        return cls(read_jsonl(path))

    @classmethod
    def from_sink(cls, sink: RingBufferSink) -> "AuditLog":
        """Snapshot the current contents of a ring-buffer sink."""
        return cls(sink.events())

    def add(self, event: Event) -> None:
        self._events.append(event)

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[Event]:
        return iter(self._events)

    # -- filtering -----------------------------------------------------

    def events(
        self,
        kind: Optional[str] = None,
        policy: Optional[str] = None,
        since: Optional[float] = None,
        until: Optional[float] = None,
        trace_id: Optional[str] = None,
    ) -> List[Event]:
        """Events matching every given filter, oldest first.  ``since``
        is inclusive, ``until`` exclusive (epoch seconds);
        ``trace_id`` matches the id stamped by the serving layer
        (events without one — policy lifecycle, canary — never
        match)."""
        out = []
        for event in self._events:
            if kind is not None and event.kind != kind:
                continue
            if policy is not None and getattr(event, "policy", None) != policy:
                continue
            if since is not None and event.timestamp < since:
                continue
            if until is not None and event.timestamp >= until:
                continue
            if (
                trace_id is not None
                and getattr(event, "trace_id", None) != trace_id
            ):
                continue
            out.append(event)
        return out

    def tail(
        self,
        count: int = 10,
        kind: Optional[str] = None,
        policy: Optional[str] = None,
        trace_id: Optional[str] = None,
    ) -> List[Event]:
        """The most recent ``count`` matching events, oldest first."""
        matching = self.events(kind=kind, policy=policy, trace_id=trace_id)
        return matching[-count:] if count >= 0 else matching

    def policies(self) -> List[str]:
        """Every policy name that appears in the log, sorted."""
        return sorted(
            {
                event.policy
                for event in self._events
                if getattr(event, "policy", None)
            }
        )

    # -- accounting ----------------------------------------------------

    def stats(self, policy: Optional[str] = None) -> Dict[str, dict]:
        """Per-policy accounting: ``{policy: {queries, cache_hits,
        slow, denials, errors, canary_checks, canary_violations,
        latency: {count, mean, p50, p95, max}}}``.

        Events without a policy attribution (e.g. parse errors before
        policy resolution) aggregate under ``"-"``.
        """
        buckets: Dict[str, dict] = {}
        latencies: Dict[str, List[float]] = {}
        for event in self._events:
            name = getattr(event, "policy", None) or "-"
            if policy is not None and name != policy:
                continue
            bucket = buckets.get(name)
            if bucket is None:
                bucket = buckets[name] = dict.fromkeys(_COUNTERS, 0)
                latencies[name] = []
            if event.kind in _COUNTED_KINDS:
                bucket[_COUNTED_KINDS[event.kind]] += 1
            if event.kind == "query":
                bucket["cache_hits"] += int(event.cache_hit)
                bucket["slow"] += int(event.slow)
                latencies[name].append(event.latency_seconds)
            elif event.kind == "canary":
                bucket["canary_violations"] += event.violations
        for name, bucket in buckets.items():
            values = latencies[name]
            bucket["latency"] = {
                "count": len(values),
                "mean": sum(values) / len(values) if values else 0.0,
                "p50": percentile(values, 0.50),
                "p95": percentile(values, 0.95),
                "max": max(values) if values else 0.0,
            }
        return buckets

    def __repr__(self):
        return "AuditLog(events=%d)" % len(self._events)
