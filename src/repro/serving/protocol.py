"""The frozen request/response protocol of the serving layer.

:class:`QueryRequest` and :class:`QueryResponse` are the *wire shape*
of one secure query: immutable dataclasses with ``to_dict`` /
``from_dict`` round-trips, versioned by :data:`PROTOCOL_VERSION`
independently of engine internals.  Both the library call
(:meth:`~repro.core.engine.SecureQueryEngine.execute_request`) and the
:class:`~repro.serving.server.QueryServer` speak exactly these values,
so a client serialized against version N keeps working while the
engine's report/options internals evolve.

Design notes:

* A request names its document by **reference** (a catalog key), not
  by value — the server resolves the ref against its
  :class:`~repro.serving.server.EngineCatalog`; library callers resolve
  it themselves and pass the document object to ``execute_request``.
* ``tenant`` defaults to the policy name (the paper's user classes are
  the natural tenants), but a deployment fronting many users per
  policy can set it independently — admission control keys on
  :attr:`QueryRequest.tenant_id`.
* A response **never** wraps an exception: failures are data
  (``error_code`` carries the stable :mod:`repro.errors` code, with
  exit-code and audit parity — see ``docs/serving.md``).
* Response ``results`` are strings: serialized XML for element
  results, raw text values for ``text()`` results — a JSON-safe shape
  that crosses process boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Tuple

from repro.core.options import ExecutionOptions
from repro.errors import (
    MaterializationAborted,
    ReproError,
    error_code as _error_code,
)
from repro.serving.resilience import normalize_criticality

__all__ = [
    "MATERIALIZE_MESSAGE",
    "PROTOCOL_VERSION",
    "QueryRequest",
    "QueryResponse",
]

#: Version tag embedded in every serialized request/response.  Bump
#: only on incompatible shape changes; readers ignore unknown fields.
PROTOCOL_VERSION = 1

#: The one message a tenant reads for ``E_MATERIALIZE``: the view's
#: Section 3.3 rules aborted on the document.  It names no sigma edge,
#: label or node count.
MATERIALIZE_MESSAGE = "the view cannot be materialized over this document"


@dataclass(frozen=True)
class QueryRequest:
    """One secure query, as data.

    ``policy``
        The registered policy (user class) the query runs under.
    ``query``
        The XPath text over that policy's security view.
    ``document``
        Document *reference* — a catalog key the server resolves; may
        stay empty for direct library calls where the caller passes
        the document object alongside the request.
    ``tenant``
        Admission-control identity; empty means "the policy name"
        (read :attr:`tenant_id`, not this field).
    ``options``
        The :class:`~repro.core.options.ExecutionOptions` to run with
        (``None`` → engine defaults).
    ``request_id``
        Opaque client-chosen correlation id, echoed on the response.
    ``trace_id``
        Distributed-trace correlation id.  Usually empty on the wire —
        the server mints one at ingress (or adopts the
        ``X-Repro-Trace`` header) and echoes it on the response; a
        client may set it to join the request to its own trace.
    ``criticality``
        Load-shedding class (``critical`` / ``default`` /
        ``sheddable``, or the ``X-Repro-Criticality`` header).  Under
        overload the server sheds the lowest class first; empty or
        unknown values mean ``default`` (read
        :attr:`criticality_class`, not this field).
    """

    policy: str
    query: str
    document: str = ""
    tenant: str = ""
    options: Optional[ExecutionOptions] = None
    request_id: str = ""
    trace_id: str = ""
    criticality: str = ""

    @property
    def tenant_id(self) -> str:
        """The admission-control identity: ``tenant``, defaulting to
        the policy name."""
        return self.tenant or self.policy

    @property
    def criticality_class(self) -> str:
        """The effective shedding class: ``criticality`` normalized —
        empty and unknown values mean ``default``."""
        return normalize_criticality(self.criticality)

    def with_(self, **changes) -> "QueryRequest":
        """A copy with some fields replaced."""
        return replace(self, **changes)

    def to_dict(self) -> dict:
        return {
            "v": PROTOCOL_VERSION,
            "policy": self.policy,
            "query": self.query,
            "document": self.document,
            "tenant": self.tenant,
            "options": self.options.to_dict() if self.options else None,
            "request_id": self.request_id,
            "trace_id": self.trace_id,
            "criticality": self.criticality,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "QueryRequest":
        """Inverse of :meth:`to_dict`; unknown keys are ignored and
        missing optional keys take their defaults, so older clients
        keep working against newer servers and vice versa."""
        options = payload.get("options")
        return cls(
            policy=payload.get("policy", ""),
            query=payload.get("query", ""),
            document=payload.get("document", ""),
            tenant=payload.get("tenant", ""),
            options=(
                ExecutionOptions.from_dict(options) if options else None
            ),
            request_id=payload.get("request_id", ""),
            trace_id=payload.get("trace_id", ""),
            criticality=payload.get("criticality", ""),
        )


@dataclass(frozen=True)
class QueryResponse:
    """The answer (or typed failure) to one :class:`QueryRequest`.

    ``ok``
        Whether the query was answered.  When ``False``,
        ``error_code`` holds the stable :mod:`repro.errors` code
        (``E_DEADLINE``, ``E_ADMISSION``, ``E_LABEL_DENIED``, ...) —
        match on the code, never on the message.
    ``results``
        Tuple of strings: serialized XML for element results, raw
        values for ``text()`` results.  Empty on failure.
    ``report``
        :meth:`QueryReport.view_dict
        <repro.core.engine.QueryReport.view_dict>` (``None`` on
        failure): counts, cache status, fingerprint and stage
        timings.  The document-side rewritten and optimized queries
        and the operator profile are left out — a tenant learns only
        the view DTD and the answer; operators read them from the
        in-process report, audit events and ``/debug/traces``.
    ``retry_after_seconds``
        Back-pressure hint on shed/rejected failures (``E_SHED`` /
        ``E_ADMISSION``): when a retry has a chance.  Surfaced over
        HTTP as the ``Retry-After`` header on 429 responses.
    """

    policy: str = ""
    query: str = ""
    ok: bool = True
    results: Tuple[str, ...] = field(default_factory=tuple)
    report: Optional[dict] = None
    error_code: str = ""
    error_message: str = ""
    request_id: str = ""
    tenant: str = ""
    trace_id: str = ""
    retry_after_seconds: Optional[float] = None

    # -- constructors ----------------------------------------------------

    @classmethod
    def from_result(cls, request: QueryRequest, result) -> "QueryResponse":
        """Wrap a :class:`~repro.core.engine.QueryResult` for the wire."""
        from repro.xmlmodel.serialize import serialize

        return cls(
            policy=request.policy,
            query=request.query,
            ok=True,
            results=tuple(
                value if isinstance(value, str) else serialize(value)
                for value in result
            ),
            report=result.report.view_dict(),
            request_id=request.request_id,
            tenant=request.tenant_id,
            trace_id=request.trace_id,
        )

    @classmethod
    def from_error(
        cls, request: QueryRequest, error: BaseException
    ) -> "QueryResponse":
        """Wrap a failure as data, preserving the stable error code.
        The message of an exception from outside :mod:`repro.errors`
        is internal detail and stays operator-side: the tenant gets
        ``"internal error"``.  So is a view abort's (``E_MATERIALIZE``),
        which names hidden sigma edges, document labels and node
        counts: the tenant gets :data:`MATERIALIZE_MESSAGE`, and the
        query's record keeps the detail."""
        if isinstance(error, MaterializationAborted):
            message = MATERIALIZE_MESSAGE
        elif isinstance(error, ReproError):
            message = str(error)
        else:
            message = "internal error"
        return cls(
            policy=request.policy,
            query=request.query,
            ok=False,
            results=(),
            report=None,
            error_code=_error_code(error),
            error_message=message,
            request_id=request.request_id,
            tenant=request.tenant_id,
            trace_id=request.trace_id,
            retry_after_seconds=getattr(error, "retry_after_seconds", None),
        )

    # -- wire shape ------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "v": PROTOCOL_VERSION,
            "policy": self.policy,
            "query": self.query,
            "ok": self.ok,
            "results": list(self.results),
            "report": self.report,
            "error_code": self.error_code,
            "error_message": self.error_message,
            "request_id": self.request_id,
            "tenant": self.tenant,
            "trace_id": self.trace_id,
            "retry_after_seconds": self.retry_after_seconds,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "QueryResponse":
        return cls(
            policy=payload.get("policy", ""),
            query=payload.get("query", ""),
            ok=payload.get("ok", True),
            results=tuple(payload.get("results") or ()),
            report=payload.get("report"),
            error_code=payload.get("error_code", ""),
            error_message=payload.get("error_message", ""),
            request_id=payload.get("request_id", ""),
            tenant=payload.get("tenant", ""),
            trace_id=payload.get("trace_id", ""),
            retry_after_seconds=payload.get("retry_after_seconds"),
        )
