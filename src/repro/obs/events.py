"""Structured audit events and pluggable bounded sinks.

Every finished query's :class:`~repro.obs.record.QueryRecord` becomes
one audit event (:func:`audit_event`): a :class:`QueryEvent`,
:class:`DenialEvent` or :class:`ErrorEvent`.  The engine emits the
others where they happen: :class:`PolicyEvent` (policy lifecycle) and
:class:`CanaryEvent` (a sampled security re-check, see
:mod:`repro.obs.canary`).

Events flow through an :class:`EventPipeline` into sinks.  Sinks are
**bounded and non-blocking by design**: the ring buffer evicts the
oldest event when full, the JSONL file sink rotates and counts (never
raises) write failures, the callback sink swallows callback
exceptions.  The pipeline additionally guards every ``sink.emit``
call, so *no sink can ever fail a query*.

Every event serializes to a JSON-safe dict via :meth:`Event.to_dict`
and parses back via :func:`event_from_dict` / :func:`read_jsonl`, so
an audit trail written by one process can be aggregated by another
(``repro audit stats``, :class:`~repro.obs.audit.AuditLog`).
"""

from __future__ import annotations

import json
import os
import time
from collections import deque
from typing import Callable, Dict, Iterable, Iterator, List, Optional

__all__ = [
    "Event",
    "QueryEvent",
    "DenialEvent",
    "PolicyEvent",
    "ErrorEvent",
    "CanaryEvent",
    "audit_event",
    "event_from_dict",
    "parse_jsonl",
    "read_jsonl",
    "EventSink",
    "RingBufferSink",
    "JsonlFileSink",
    "CallbackSink",
    "EventPipeline",
]


class Event:
    """Base class of audit events: a ``kind`` tag, a wall-clock
    ``timestamp`` (seconds since the epoch), and the typed fields of
    ``_fields`` (name -> default, in constructor order), which drive
    the constructor, :meth:`to_dict` and :meth:`from_dict`.  Fields
    with a bool/int/float default are coerced to that type."""

    kind = "event"
    _fields: Dict[str, object] = {}
    __slots__ = ("timestamp",)

    def __init__(self, *values, timestamp: Optional[float] = None, **fields):
        fields.update(zip(self._fields, values))
        unknown = set(fields) - set(self._fields)
        if unknown or len(values) > len(self._fields):
            raise TypeError(
                "%s fields are %s" % (type(self).__name__, list(self._fields))
            )
        self.timestamp = time.time() if timestamp is None else float(timestamp)
        for name, default in self._fields.items():
            value = fields.get(name, default)
            if isinstance(default, (bool, int, float)):
                value = type(default)(value)
            setattr(self, name, value)

    def to_dict(self) -> dict:
        """JSON-safe export; ``from_dict``/:func:`event_from_dict`
        invert it exactly."""
        out: dict = {"kind": self.kind, "timestamp": self.timestamp}
        for name in self._fields:
            out[name] = getattr(self, name)
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, payload: dict) -> "Event":
        """Rebuild an event of this class from a :meth:`to_dict`
        payload (unknown keys are ignored; missing ones use the
        defaults)."""
        keyword_arguments = {
            name: payload[name] for name in cls._fields if name in payload
        }
        return cls(timestamp=payload.get("timestamp"), **keyword_arguments)

    def __repr__(self):
        fields = " ".join(
            "%s=%r" % (name, getattr(self, name)) for name in self._fields
        )
        return "%s(%s)" % (type(self).__name__, fields)


class QueryEvent(Event):
    """One answered query."""

    kind = "query"
    _fields = {
        "policy": "",
        "query": "",
        "rewritten": "",
        "cache_hit": False,
        "result_count": 0,
        "visits": 0,
        "latency_seconds": 0.0,
        "slow": False,
        "profile": None,
        "fingerprint": "",
        "trace_id": "",
    }
    __slots__ = tuple(_fields)


class DenialEvent(Event):
    """A strict-mode label check rejected a query."""

    kind = "denial"
    _fields = {
        "policy": "",
        "query": "",
        "label": "",
        "code": "E_LABEL_DENIED",
        "message": "",
        "trace_id": "",
    }
    __slots__ = tuple(_fields)


class PolicyEvent(Event):
    """A policy lifecycle change: ``register``, ``drop``, or
    ``invalidate``."""

    kind = "policy"
    _fields = {"action": "", "policy": ""}
    __slots__ = tuple(_fields)


class ErrorEvent(Event):
    """A query failed; ``code`` is the stable
    :attr:`~repro.errors.ReproError.code` of the raised exception."""

    kind = "error"
    _fields = {
        "policy": "",
        "query": "",
        "code": "E_REPRO",
        "message": "",
        "trace_id": "",
    }
    __slots__ = tuple(_fields)


class CanaryEvent(Event):
    """One sampled security re-check of a served answer against the
    materialized-view oracle.  ``violations`` is ``missing + extra``
    (answers the oracle expected but the engine omitted, plus answers
    the engine served that the oracle forbids); a nonzero value is a
    breach of the paper's security theorem and should page."""

    kind = "canary"
    _fields = {
        "policy": "",
        "query": "",
        "sample_rate": 1.0,
        "expected_count": 0,
        "actual_count": 0,
        "missing": 0,
        "extra": 0,
        "violations": 0,
        "ok": True,
    }
    __slots__ = tuple(_fields)


def audit_event(record) -> Event:
    """The one audit event of a finished query's
    :class:`~repro.obs.record.QueryRecord`: a :class:`DenialEvent`
    (strict-mode label denial), an :class:`ErrorEvent` (any other
    failure) or a :class:`QueryEvent` (an answer)."""
    common = dict(
        policy=record.policy,
        query=record.query,
        trace_id=record.trace_id,
        timestamp=record.timestamp,
    )
    if record.denied:
        return DenialEvent(
            label=record.denied_label,
            code=record.error_code,
            message=record.error_message,
            **common,
        )
    if record.error_code:
        return ErrorEvent(
            code=record.error_code, message=record.error_message, **common
        )
    return QueryEvent(
        rewritten=str(record.rewritten),
        cache_hit=record.cache_hit,
        result_count=record.result_count,
        visits=record.visits,
        latency_seconds=record.engine_seconds,
        slow=record.slow,
        profile=record.profile,
        fingerprint=str(record.fingerprint) if record.fingerprint else "",
        **common,
    )


#: kind tag -> event class, for :func:`event_from_dict`.
EVENT_TYPES: Dict[str, type] = {
    cls.kind: cls
    for cls in (
        QueryEvent,
        DenialEvent,
        PolicyEvent,
        ErrorEvent,
        CanaryEvent,
    )
}


def event_from_dict(payload: dict) -> Event:
    """Rebuild a typed event from a :meth:`Event.to_dict` payload.

    Unknown kinds raise ``KeyError`` — an audit file from a newer
    library version should fail loudly, not be silently dropped.
    """
    return EVENT_TYPES[payload["kind"]].from_dict(payload)


def parse_jsonl(lines: Iterable[str]) -> Iterator[Event]:
    """Parse JSONL audit lines back into typed events (blank lines
    are skipped)."""
    for line in lines:
        line = line.strip()
        if line:
            yield event_from_dict(json.loads(line))


def read_jsonl(path) -> List[Event]:
    """Load an audit trail written by :class:`JsonlFileSink`."""
    with open(path, "r", encoding="utf-8") as handle:
        return list(parse_jsonl(handle))


# -- sinks ----------------------------------------------------------------


class EventSink:
    """Interface of event consumers.  Implementations must be bounded
    and must prefer dropping events (counted in ``dropped``) over
    blocking or raising; the pipeline guards ``emit`` regardless."""

    #: Events this sink could not record.
    dropped = 0

    def emit(self, event: Event) -> None:
        raise NotImplementedError

    def close(self) -> None:  # pragma: no cover - default no-op
        pass

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self.close()
        return False


class RingBufferSink(EventSink):
    """Keeps the most recent ``capacity`` events in memory; when full,
    the oldest event is evicted (and counted in ``evicted``)."""

    __slots__ = ("capacity", "evicted", "emitted", "dropped", "_buffer")

    def __init__(self, capacity: int = 1024):
        if capacity < 1:
            raise ValueError("ring buffer capacity must be >= 1")
        self.capacity = capacity
        self.evicted = 0
        self.emitted = 0
        self.dropped = 0
        self._buffer: deque = deque(maxlen=capacity)

    def emit(self, event: Event) -> None:
        if len(self._buffer) == self.capacity:
            self.evicted += 1
        self._buffer.append(event)
        self.emitted += 1

    def events(
        self, kind: Optional[str] = None, policy: Optional[str] = None
    ) -> List[Event]:
        """The buffered events, oldest first, optionally filtered."""
        out = list(self._buffer)
        if kind is not None:
            out = [event for event in out if event.kind == kind]
        if policy is not None:
            out = [
                event
                for event in out
                if getattr(event, "policy", None) == policy
            ]
        return out

    def clear(self) -> None:
        self._buffer.clear()

    def __len__(self) -> int:
        return len(self._buffer)

    def __repr__(self):
        return "RingBufferSink(capacity=%d, buffered=%d, evicted=%d)" % (
            self.capacity,
            len(self._buffer),
            self.evicted,
        )


class JsonlFileSink(EventSink):
    """Appends one JSON line per event to ``path``, with size-based
    rotation: when a write would push the file past ``max_bytes``, the
    file is rotated (``path`` -> ``path.1`` -> ... -> ``path.N`` for
    ``backups`` generations; the oldest generation is deleted).

    Write failures (disk full, permission lost mid-run) increment
    ``dropped`` and never propagate — audit logging must not be able
    to take the serving path down.
    """

    __slots__ = (
        "path",
        "max_bytes",
        "backups",
        "emitted",
        "dropped",
        "rotations",
        "_handle",
        "_size",
    )

    def __init__(
        self,
        path,
        max_bytes: Optional[int] = None,
        backups: int = 1,
    ):
        if max_bytes is not None and max_bytes < 1:
            raise ValueError("max_bytes must be >= 1 (or None)")
        if backups < 0:
            raise ValueError("backups must be >= 0")
        self.path = os.fspath(path)
        self.max_bytes = max_bytes
        self.backups = backups
        self.emitted = 0
        self.dropped = 0
        self.rotations = 0
        self._handle = None
        self._size = 0

    def _open(self):
        if self._handle is None:
            self._handle = open(self.path, "a", encoding="utf-8")
            self._size = self._handle.tell()
        return self._handle

    def _rotate(self) -> None:
        self.close()
        if self.backups == 0:
            os.remove(self.path)
        else:
            oldest = "%s.%d" % (self.path, self.backups)
            if os.path.exists(oldest):
                os.remove(oldest)
            for generation in range(self.backups - 1, 0, -1):
                source = "%s.%d" % (self.path, generation)
                if os.path.exists(source):
                    os.replace(source, "%s.%d" % (self.path, generation + 1))
            os.replace(self.path, "%s.1" % self.path)
        self.rotations += 1

    def emit(self, event: Event) -> None:
        try:
            line = event.to_json() + "\n"
            handle = self._open()
            if (
                self.max_bytes is not None
                and self._size > 0
                and self._size + len(line) > self.max_bytes
            ):
                self._rotate()
                handle = self._open()
            handle.write(line)
            handle.flush()
            self._size += len(line)
            self.emitted += 1
        except Exception:
            self.dropped += 1

    def close(self) -> None:
        if self._handle is not None:
            try:
                self._handle.close()
            except Exception:
                pass
            self._handle = None
            self._size = 0

    def __repr__(self):
        return "JsonlFileSink(%r, emitted=%d, dropped=%d, rotations=%d)" % (
            self.path,
            self.emitted,
            self.dropped,
            self.rotations,
        )


class CallbackSink(EventSink):
    """Hands each event to ``callback(event)``; callback exceptions
    are swallowed and counted in ``dropped``."""

    __slots__ = ("callback", "emitted", "dropped")

    def __init__(self, callback: Callable[[Event], None]):
        self.callback = callback
        self.emitted = 0
        self.dropped = 0

    def emit(self, event: Event) -> None:
        try:
            self.callback(event)
            self.emitted += 1
        except Exception:
            self.dropped += 1

    def __repr__(self):
        return "CallbackSink(%r, emitted=%d, dropped=%d)" % (
            self.callback,
            self.emitted,
            self.dropped,
        )


class EventPipeline:
    """Fans events out to the attached sinks.

    With no sinks attached the pipeline is inert: the engine's guard
    (``pipeline.active``) short-circuits before any event object is
    even built, so the serving-path cost of an unused pipeline is one
    attribute check.  Each ``sink.emit`` is additionally wrapped in a
    bare except — a misbehaving sink increments ``dropped`` instead of
    failing the query that triggered the event.
    """

    __slots__ = ("_sinks", "emitted", "dropped")

    def __init__(self, sinks: Iterable[EventSink] = ()):
        self._sinks: List[EventSink] = list(sinks)
        self.emitted = 0
        self.dropped = 0

    @property
    def active(self) -> bool:
        """Whether any sink is attached (the engine's emit guard)."""
        return bool(self._sinks)

    def add_sink(self, sink: EventSink) -> EventSink:
        """Attach a sink; returns it (for one-line attach-and-keep)."""
        self._sinks.append(sink)
        return sink

    def remove_sink(self, sink: EventSink) -> None:
        """Detach a sink (no error if it was never attached)."""
        try:
            self._sinks.remove(sink)
        except ValueError:
            pass

    def sinks(self) -> tuple:
        return tuple(self._sinks)

    def emit(self, event: Event) -> None:
        if not self._sinks:
            return
        self.emitted += 1
        for sink in self._sinks:
            try:
                sink.emit(event)
            except Exception:
                self.dropped += 1

    def close(self) -> None:
        """Close every sink (guarded, like emission)."""
        for sink in self._sinks:
            try:
                sink.close()
            except Exception:
                pass

    def __repr__(self):
        return "EventPipeline(sinks=%d, emitted=%d, dropped=%d)" % (
            len(self._sinks),
            self.emitted,
            self.dropped,
        )
