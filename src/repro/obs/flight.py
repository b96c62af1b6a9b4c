"""Tail-sampled flight recorder: the last-N traces worth keeping.

A production query server cannot retain every trace, but the traces
worth money are exactly the ones a uniform sampler throws away: the
slow outliers, the errors, the security denials, the canary
violations.  The :class:`FlightRecorder` therefore keeps each
finished request's :class:`~repro.obs.record.QueryRecord` (paired with
a sequence number) by **tail-based retention** on its ``status``:

* every *interesting* trace (error / denied / slow /
  canary-violation) lands in a bounded FIFO **tail buffer** — always
  kept until capacity evicts the oldest;
* *uninteresting* OK traces go through **reservoir sampling**
  (Algorithm R with a seeded RNG, so a given trace stream retains a
  deterministic subset) into a second bounded buffer, preserving a
  uniform sample of normal traffic for baseline comparison.

Both buffers index by ``trace_id``, so a client holding the id echoed
on its :class:`~repro.serving.protocol.QueryResponse` can fetch the
full span tree from ``GET /debug/traces?trace_id=...`` (or ``repro
trace tail``) after the fact.

Everything is stdlib + one lock; ``record()`` is O(1): the closed
root span becomes plain dicts (:func:`trace_dict`) only when a trace
is read.
"""

from __future__ import annotations

import random
from collections import deque
from threading import Lock
from typing import Deque, Dict, List, Optional, Tuple

from repro.obs.record import QueryRecord

__all__ = ["FlightRecorder", "render_trace", "trace_dict"]


def trace_dict(record: QueryRecord) -> dict:
    """One retained trace as served by ``GET /debug/traces``: the
    record's identity and classification plus its span tree as plain
    dicts (JSON-safe)."""
    return {
        "trace_id": record.trace_id,
        "request_id": record.request_id,
        "tenant": record.tenant,
        "policy": record.policy,
        "query": record.query,
        "document": record.document,
        "status": record.status,
        "ok": record.ok,
        "error_code": record.error_code,
        "latency_seconds": record.latency_seconds,
        "slow": record.slow,
        "canary_violations": record.canary_violations,
        "fingerprint": str(record.fingerprint) if record.fingerprint else "",
        "recorded_at": record.timestamp,
        "spans": record.span.to_dict() if record.span is not None else {},
    }


def render_trace(payload: dict) -> str:
    """Human text rendering of one :func:`trace_dict` payload:
    a header line plus the indented span tree."""
    header = "%s  %-16s %-10s %s  %.3fms" % (
        payload.get("trace_id", "")[:16],
        payload.get("tenant", "-") or "-",
        payload.get("status", "?"),
        payload.get("query", ""),
        payload.get("latency_seconds", 0.0) * 1e3,
    )
    lines = [header]

    def walk(span: dict, indent: int) -> None:
        attrs = span.get("attributes") or {}
        rendered = (
            "  " + " ".join("%s=%s" % kv for kv in sorted(attrs.items()))
            if attrs
            else ""
        )
        lines.append(
            "%s%s [%s]  %.3fms%s"
            % (
                "  " * indent,
                span.get("name", "?"),
                span.get("span_id", ""),
                span.get("duration_seconds", 0.0) * 1e3,
                rendered,
            )
        )
        for child in span.get("children", ()):
            walk(child, indent + 1)

    spans = payload.get("spans")
    if spans:
        walk(spans, 1)
    return "\n".join(lines)


class FlightRecorder:
    """Bounded, thread-safe trace retention with tail bias.

    ``capacity``
        Reservoir size for OK traces (uniform sample of normal
        traffic, Algorithm R, deterministic under ``seed``).
    ``tail_capacity``
        FIFO size for interesting traces (errors, denials, SLO-slow,
        canary violations).  Oldest evict first; an eviction is
        counted, never silent.
    """

    def __init__(
        self,
        capacity: int = 128,
        tail_capacity: int = 256,
        seed: int = 0,
    ):
        if capacity < 1:
            raise ValueError("capacity must be >= 1, got %r" % (capacity,))
        if tail_capacity < 1:
            raise ValueError(
                "tail_capacity must be >= 1, got %r" % (tail_capacity,)
            )
        self.capacity = capacity
        self.tail_capacity = tail_capacity
        self._rng = random.Random(seed)
        # (seq, record) pairs; seq is the recorder's stable ordering key
        self._ok: List[Tuple[int, QueryRecord]] = []
        self._tail: Deque[Tuple[int, QueryRecord]] = deque()
        self._index: Dict[str, QueryRecord] = {}
        self._lock = Lock()
        self._seq = 0
        # retention accounting (all monotonic)
        self.recorded = 0
        self.ok_seen = 0
        self.ok_replaced = 0
        self.ok_dropped = 0
        self.tail_kept = 0
        self.tail_evicted = 0

    # -- recording -----------------------------------------------------

    def record(self, record: QueryRecord) -> bool:
        """Offer one finished request; returns whether it was
        retained.  Anything but an ``ok`` status is tail-retained."""
        with self._lock:
            self._seq += 1
            entry = (self._seq, record)
            self.recorded += 1
            if record.status != "ok":
                self.tail_kept += 1
                self._tail.append(entry)
                self._index[record.trace_id] = record
                if len(self._tail) > self.tail_capacity:
                    _, evicted = self._tail.popleft()
                    self.tail_evicted += 1
                    self._discard(evicted)
                return True
            # reservoir (Algorithm R) over the OK stream
            self.ok_seen += 1
            if len(self._ok) < self.capacity:
                self._ok.append(entry)
                self._index[record.trace_id] = record
                return True
            slot = self._rng.randrange(self.ok_seen)
            if slot < self.capacity:
                _, replaced = self._ok[slot]
                self.ok_replaced += 1
                self._discard(replaced)
                self._ok[slot] = entry
                self._index[record.trace_id] = record
                return True
            self.ok_dropped += 1
            return False

    def _discard(self, record: QueryRecord) -> None:
        # only drop the index entry if it still points at this record
        # (a trace_id collision must not orphan the newer record)
        if self._index.get(record.trace_id) is record:
            del self._index[record.trace_id]

    # -- lookup --------------------------------------------------------

    def get(self, trace_id: str) -> Optional[QueryRecord]:
        with self._lock:
            return self._index.get(trace_id)

    def traces(
        self,
        n: Optional[int] = None,
        tenant: Optional[str] = None,
        status: Optional[str] = None,
    ) -> List[QueryRecord]:
        """Retained records, newest first, optionally filtered."""
        with self._lock:
            merged = list(self._tail) + list(self._ok)
        merged.sort(key=lambda entry: entry[0], reverse=True)
        out = []
        for _, record in merged:
            if tenant is not None and record.tenant != tenant:
                continue
            if status is not None and record.status != status:
                continue
            out.append(record)
            if n is not None and len(out) >= n:
                break
        return out

    def __len__(self) -> int:
        with self._lock:
            return len(self._tail) + len(self._ok)

    # -- introspection -------------------------------------------------

    def stats(self) -> dict:
        with self._lock:
            return {
                "recorded": self.recorded,
                "retained": len(self._tail) + len(self._ok),
                "tail": len(self._tail),
                "tail_kept": self.tail_kept,
                "tail_evicted": self.tail_evicted,
                "ok_sampled": len(self._ok),
                "ok_seen": self.ok_seen,
                "ok_replaced": self.ok_replaced,
                "ok_dropped": self.ok_dropped,
                "capacity": self.capacity,
                "tail_capacity": self.tail_capacity,
            }

    def to_dict(
        self,
        n: Optional[int] = None,
        tenant: Optional[str] = None,
        status: Optional[str] = None,
    ) -> dict:
        """The ``GET /debug/traces`` payload: stats + newest-first
        trace dicts."""
        return {
            "stats": self.stats(),
            "traces": [
                trace_dict(record)
                for record in self.traces(n=n, tenant=tenant, status=status)
            ],
        }

    def __repr__(self):
        return "FlightRecorder(retained=%d, recorded=%d)" % (
            len(self),
            self.recorded,
        )
