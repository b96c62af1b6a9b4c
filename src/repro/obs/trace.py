"""Zero-dependency span tracing for the serving path.

A :class:`Span` is one timed region of work — a pipeline stage, a plan
compilation, a whole query — with a name, optional attributes, a wall
time measured by ``perf_counter``, and nested child spans.  A
:class:`Tracer` hands out spans as context managers and maintains the
nesting stack, so instrumented code reads as::

    tracer = Tracer()
    with tracer.span("query", policy="nurse") as query_span:
        with tracer.span("parse"):
            ...
        with tracer.span("evaluate") as ev:
            results = ...
            ev.set(results=len(results))
    query_span.duration      # end-to-end wall seconds

The engine derives ``QueryReport.timings`` from the stage spans and
``QueryReport.total_seconds`` from the enclosing query span.

A disabled tracer (``Tracer(enabled=False)``) returns a shared no-op
span: no allocation, no clock reads, no bookkeeping — instrumentation
left in place costs one attribute check.
"""

from __future__ import annotations

import itertools
import uuid
from time import perf_counter
from typing import Dict, List, Optional

__all__ = [
    "Span",
    "Tracer",
    "NULL_SPAN",
    "TraceContext",
    "new_trace_id",
    "new_span_id",
]


def new_trace_id() -> str:
    """A fresh 32-hex-char trace id (request-scoped correlation key)."""
    return uuid.uuid4().hex


def new_span_id() -> str:
    """A fresh 16-hex-char span id."""
    return uuid.uuid4().hex[:16]


class TraceContext:
    """The request-scoped trace identity minted at ingress.

    ``trace_id`` correlates every span of one request across the
    serving stack (queue wait, engine stages) and is echoed on
    the :class:`~repro.serving.protocol.QueryResponse`;  ``span_id``
    names the server's root span; ``parent_span_id`` is the *client's*
    span when the caller propagated one (the ``X-Repro-Trace`` header
    form ``<trace_id>-<parent_span_id>``)."""

    __slots__ = ("trace_id", "span_id", "parent_span_id")

    def __init__(
        self,
        trace_id: str,
        span_id: Optional[str] = None,
        parent_span_id: str = "",
    ):
        self.trace_id = trace_id
        self.span_id = span_id if span_id is not None else new_span_id()
        self.parent_span_id = parent_span_id

    @classmethod
    def new(cls) -> "TraceContext":
        return cls(new_trace_id())

    @classmethod
    def from_header(cls, header: str) -> "TraceContext":
        """Parse an ``X-Repro-Trace`` header: ``<trace_id>`` or
        ``<trace_id>-<parent_span_id>``.  Blank input mints a fresh
        context."""
        header = (header or "").strip()
        if not header:
            return cls.new()
        trace_id, _, parent = header.partition("-")
        return cls(trace_id, parent_span_id=parent)

    def to_header(self) -> str:
        return (
            "%s-%s" % (self.trace_id, self.span_id)
            if self.span_id
            else self.trace_id
        )

    def __repr__(self):
        return "TraceContext(trace_id=%r, span_id=%r, parent_span_id=%r)" % (
            self.trace_id,
            self.span_id,
            self.parent_span_id,
        )


class Span:
    """One timed, named, attributed region of work (a context manager).

    ``duration`` is the wall-clock seconds between ``__enter__`` and
    ``__exit__`` (for a still-open span, the time elapsed so far)."""

    __slots__ = ("name", "attributes", "started", "ended", "children", "_tracer")

    def __init__(self, name: str, tracer: Optional["Tracer"] = None, **attributes):
        self.name = name
        self.attributes: Dict[str, object] = attributes
        self.started: Optional[float] = None
        self.ended: Optional[float] = None
        self.children: List["Span"] = []
        self._tracer = tracer

    # -- context manager -----------------------------------------------

    def __enter__(self) -> "Span":
        tracer = self._tracer
        if tracer is not None:
            stack = tracer._stack
            (stack[-1].children if stack else tracer.roots).append(self)
            stack.append(self)
        self.started = perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        self.ended = perf_counter()
        tracer = self._tracer
        if tracer is not None and tracer._stack and tracer._stack[-1] is self:
            tracer._stack.pop()
        return False

    # -- introspection -------------------------------------------------

    @property
    def duration(self) -> float:
        if self.started is None:
            return 0.0
        return (self.ended if self.ended is not None else perf_counter()) - self.started

    def set(self, **attributes) -> "Span":
        """Attach (or overwrite) attributes on the span."""
        self.attributes.update(attributes)
        return self

    def to_dict(self, _ids=None, _parent_id: str = "") -> dict:
        """JSON-safe export of the subtree.  Spans carry deterministic
        preorder ids (``0001``, ``0002``, ...) and their parent's."""
        ids = itertools.count(1) if _ids is None else _ids
        span_id = "%04x" % next(ids)
        out: dict = {
            "name": self.name,
            "span_id": span_id,
            "parent_span_id": _parent_id,
            "duration_seconds": self.duration,
        }
        if self.attributes:
            out["attributes"] = dict(self.attributes)
        if self.children:
            out["children"] = [
                child.to_dict(ids, span_id) for child in self.children
            ]
        return out

    def render(self, indent: int = 0) -> str:
        """Indented multi-line text rendering of the span subtree."""
        attrs = (
            "  " + " ".join("%s=%s" % kv for kv in sorted(self.attributes.items()))
            if self.attributes
            else ""
        )
        lines = [
            "%s%s  %.3fms%s" % ("  " * indent, self.name, self.duration * 1e3, attrs)
        ]
        for child in self.children:
            lines.append(child.render(indent + 1))
        return "\n".join(lines)

    def __repr__(self):
        return "Span(%r, %.6fs, children=%d)" % (
            self.name,
            self.duration,
            len(self.children),
        )


class _NullSpan:
    """Shared no-op span returned by disabled tracers: entering,
    exiting, and attribute setting all cost nothing measurable."""

    __slots__ = ()
    name = "<disabled>"
    attributes: Dict[str, object] = {}
    children: List[Span] = []
    started = None
    ended = None
    duration = 0.0

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        return False

    def set(self, **attributes):
        return self

    def to_dict(self) -> dict:
        return {}

    def render(self, indent: int = 0) -> str:
        return ""

    def __repr__(self):
        return "NULL_SPAN"


#: The shared no-op span handed out by disabled tracers.
NULL_SPAN = _NullSpan()


class Tracer:
    """Hands out nested :class:`Span` context managers.

    ``roots`` collects the top-level spans opened on this tracer (one
    per traced request, usually).  A disabled tracer returns
    :data:`NULL_SPAN` from :meth:`span` and records nothing."""

    __slots__ = ("enabled", "roots", "_stack")

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.roots: List[Span] = []
        self._stack: List[Span] = []

    def span(self, name: str, **attributes):
        """A new child span of the currently open span (or a new root)."""
        if not self.enabled:
            return NULL_SPAN
        return Span(name, tracer=self, **attributes)

    @property
    def current(self) -> Optional[Span]:
        """The innermost open span, if any."""
        return self._stack[-1] if self._stack else None

    @property
    def root(self) -> Optional[Span]:
        """The first root span (the usual single-request case)."""
        return self.roots[0] if self.roots else None

    def to_dict(self) -> dict:
        return {"spans": [span.to_dict() for span in self.roots]}

    def __repr__(self):
        return "Tracer(enabled=%r, roots=%d)" % (self.enabled, len(self.roots))
