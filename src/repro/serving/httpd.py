"""A minimal HTTP front end over :class:`~repro.serving.server.QueryServer`.

Stdlib-only (:mod:`http.server`), the endpoints:

``POST /query``
    Body: a :class:`~repro.serving.protocol.QueryRequest` as JSON.
    Response: the :class:`~repro.serving.protocol.QueryResponse` as
    JSON — HTTP 200 for answered queries, 403 for security denials,
    429 for admission rejections and load shedding (``E_ADMISSION`` /
    ``E_SHED`` / ``E_BUDGET``, always with a ``Retry-After`` header),
    504 for deadline misses (both queue-deadline expiry and engine
    deadlines ride ``E_DEADLINE``), 500 for server-side failures
    (``E_FAULT``, and ``E_UNKNOWN`` for exceptions from outside the
    library, whose message the tenant never sees), 400 for malformed
    bodies and other client errors.  The body always carries the
    typed ``error_code``; the status is a convenience mapping of it.
    An ``X-Repro-Trace`` request header (``<trace_id>`` or
    ``<trace_id>-<parent_span_id>``) joins the request to the
    caller's trace; the response always carries the effective
    ``trace_id`` both in the body and as an ``X-Repro-Trace``
    response header.  An ``X-Repro-Criticality`` request header
    (``critical`` / ``default`` / ``sheddable``) sets the request's
    load-shedding class when the body doesn't.
``GET /metrics``
    Prometheus text exposition of the ambient metrics registry
    (including the labeled ``serving_*`` histogram and ``slo_*``
    burn counters).
``GET /debug/traces``
    The flight recorder's retained traces, newest first, as JSON.
    Filters: ``?trace_id=`` (one exact trace), ``?tenant=``,
    ``?status=`` (ok/slow/error/denied/canary-violation), ``?n=``.
``GET /debug/slo``
    Per-tenant SLO compliance and fast/slow burn rates as JSON.
``GET /debug/workload``
    Per-tenant heavy-hitter query shapes (count, p50/p95, cache hit
    ratio, error/denial counts) from the workload profiler.
    Filters: ``?tenant=``, ``?n=`` (top-K per tenant).
``GET /debug/cachez``
    Cache/memory introspection per catalog engine: plan cache,
    NodeTables, accessibility columns, the canary's oracle views —
    entries, byte estimates, hit/eviction counters.
``GET /debug/vars``
    Process vars: version, uptime, admission queue state,
    cache byte totals, workload roll-up.
``GET /debug/resilience``
    Overload survival state: shedding (utilization EWMA, classes
    currently shed, shed counts by class) and drain status.
``GET /healthz``
    Liveness only — 200 while the process can answer at all (even
    mid-drain): ``{"ok": true, "documents": [...]}``.
``GET /readyz``
    Readiness — 200 when this instance should receive traffic, 503
    (with reasons) when starting, draining, stopped, or serving an
    empty catalog.

This is deliberately a thin shell: all semantics (admission,
shedding, tracing, audit) live in :class:`QueryServer`, so library
users and HTTP users get identical behaviour.
"""

from __future__ import annotations

import json
import math
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional
from urllib.parse import parse_qs, urlsplit

from repro.obs.flight import trace_dict
from repro.obs.trace import TraceContext
from repro.robustness.faults import trip as fault_trip
from repro.serving.protocol import QueryRequest, QueryResponse
from repro.serving.server import QueryServer

__all__ = ["serve_http", "make_http_server"]

#: HTTP status conveying each error family; anything unlisted is a
#: client error (400).  Server-side failures are 500.
_STATUS_BY_CODE = {
    "": 200,
    "E_ADMISSION": 429,
    "E_SHED": 429,
    "E_DEADLINE": 504,
    "E_BUDGET": 429,
    "E_LABEL_DENIED": 403,
    "E_SECURITY": 403,
    "E_FAULT": 500,
    "E_UNKNOWN": 500,
}

#: Fallback Retry-After (seconds) when the response carries no hint.
_DEFAULT_RETRY_AFTER = 1


class _Handler(BaseHTTPRequestHandler):
    server_version = "repro-serve"
    #: Set by :func:`make_http_server`.
    query_server: QueryServer = None

    # Silence per-request stderr logging; metrics cover observability.
    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass

    def _send_json(
        self,
        status: int,
        payload: dict,
        trace_id: str = "",
        retry_after: Optional[float] = None,
    ) -> None:
        fault_trip("httpd.write")
        self._write_json(
            status, payload, trace_id=trace_id, retry_after=retry_after
        )

    def _write_json(
        self,
        status: int,
        payload: dict,
        trace_id: str = "",
        retry_after: Optional[float] = None,
    ) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if trace_id:
            self.send_header("X-Repro-Trace", trace_id)
        if retry_after is not None:
            self.send_header(
                "Retry-After", str(max(1, int(math.ceil(retry_after))))
            )
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self):
        parts = urlsplit(self.path)
        path, query_string = parts.path, parts.query
        if path == "/healthz":
            self._send_json(
                200,
                {
                    "ok": True,
                    "documents": self.query_server.catalog.refs(),
                },
            )
        elif path == "/readyz":
            ready, payload = self.query_server.ready_payload()
            self._send_json(200 if ready else 503, payload)
        elif path == "/debug/resilience":
            self._send_json(200, self.query_server.resilience_payload())
        elif path == "/debug/traces":
            self._send_json(200, self._traces_payload(query_string))
        elif path == "/debug/slo":
            self._send_json(200, self.query_server.slo_payload())
        elif path == "/debug/workload":
            self._send_json(200, self._workload_payload(query_string))
        elif path == "/debug/cachez":
            self._send_json(200, self.query_server.cache_payload())
        elif path == "/debug/vars":
            self._send_json(200, self.query_server.vars_payload())
        elif path == "/metrics":
            from repro.obs.export import prometheus_text
            from repro.obs.metrics import metrics_registry

            # fold live workload/cache state into the registry so the
            # scrape carries current gauges, not last-scrape values
            self.query_server.publish_metrics()
            body = prometheus_text(metrics_registry()).encode("utf-8")
            self.send_response(200)
            self.send_header("Content-Type", "text/plain; version=0.0.4")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)
        else:
            self._send_json(404, {"ok": False, "error": "not found"})

    def _traces_payload(self, query_string: str) -> dict:
        """The ``/debug/traces`` response for one query string."""
        params = parse_qs(query_string or "")

        def first(key):
            values = params.get(key)
            return values[0] if values else None

        trace_id = first("trace_id")
        if trace_id:
            record = (
                self.query_server.flight.get(trace_id)
                if self.query_server.flight is not None
                else None
            )
            return {
                "enabled": self.query_server.flight is not None,
                "traces": [trace_dict(record)] if record is not None else [],
            }
        try:
            n = int(first("n")) if first("n") else None
        except ValueError:
            n = None
        return self.query_server.trace_payload(
            n=n, tenant=first("tenant"), status=first("status")
        )

    def _workload_payload(self, query_string: str) -> dict:
        """The ``/debug/workload`` response for one query string."""
        params = parse_qs(query_string or "")

        def first(key):
            values = params.get(key)
            return values[0] if values else None

        try:
            n = int(first("n")) if first("n") else None
        except ValueError:
            n = None
        return self.query_server.workload_payload(
            tenant=first("tenant"), n=n
        )

    def do_POST(self):
        if self.path != "/query":
            self._send_json(404, {"ok": False, "error": "not found"})
            return
        try:
            length = int(self.headers.get("Content-Length", "0"))
            request = QueryRequest.from_dict(
                json.loads(self.rfile.read(length).decode("utf-8"))
            )
        except Exception as error:
            self._send_json(
                400, {"ok": False, "error": "malformed request: %s" % error}
            )
            return
        header = self.headers.get("X-Repro-Trace", "")
        if header and not request.trace_id:
            context = TraceContext.from_header(header)
            request = request.with_(trace_id=context.trace_id)
        criticality = self.headers.get("X-Repro-Criticality", "")
        if criticality and not request.criticality:
            request = request.with_(criticality=criticality)
        response: QueryResponse = self.query_server.query(request)
        status = _STATUS_BY_CODE.get(response.error_code, 400)
        retry_after = None
        if status == 429:
            # back-pressure always tells the client when to come back
            retry_after = (
                response.retry_after_seconds or _DEFAULT_RETRY_AFTER
            )
        try:
            self._send_json(
                status,
                response.to_dict(),
                trace_id=response.trace_id,
                retry_after=retry_after,
            )
        except Exception:
            # the write seam failed (injected fault or a torn
            # connection): best-effort typed 500, then give up —
            # never let a write failure take the handler thread down
            try:
                self._write_json(
                    500,
                    {
                        "ok": False,
                        "error_code": "E_FAULT",
                        "error_message": "response write failed",
                        "request_id": request.request_id,
                    },
                    trace_id=response.trace_id,
                )
            except Exception:
                pass


def make_http_server(
    query_server: QueryServer, host: str = "127.0.0.1", port: int = 8000
) -> ThreadingHTTPServer:
    """Bind (but do not run) the HTTP front end."""
    handler = type("_BoundHandler", (_Handler,), {"query_server": query_server})
    return ThreadingHTTPServer((host, port), handler)


def serve_http(
    query_server: QueryServer,
    host: str = "127.0.0.1",
    port: int = 8000,
    ready: Optional[object] = None,
) -> None:
    """Run the HTTP front end until interrupted.  ``ready``, when a
    :class:`threading.Event`, is set once the socket is bound (test
    hook)."""
    httpd = make_http_server(query_server, host, port)
    if ready is not None:
        ready.set()
    try:
        httpd.serve_forever()
    finally:
        httpd.server_close()
