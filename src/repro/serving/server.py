"""The concurrent multi-tenant query server.

:class:`QueryServer` answers each request on the thread that calls
:meth:`QueryServer.query` (an HTTP handler thread, or a replay
client), over one or more
:class:`~repro.core.engine.SecureQueryEngine` instances.  The
contract:

* :meth:`QueryServer.query` **never raises** — every request comes
  back as a :class:`~repro.serving.protocol.QueryResponse`, failures
  included (typed error codes, exit-code and audit parity with the
  CLI).
* Per-tenant admission (:mod:`repro.serving.admission`) is the only
  place a request waits, so one flooding tenant exhausts only its own
  slots and queue, and another tenant's request never waits behind it.
* A request resolves its document ref and is answered with one
  :meth:`~repro.core.engine.SecureQueryEngine.execute_request` call,
  so its answer, budget verdict and visit count never depend on which
  other requests run beside it.
* Every call finishes as exactly one
  :class:`~repro.obs.record.QueryRecord`, also when it never reaches
  an engine (an unknown document ref, a call before :meth:`start`, a
  drain or stop rejection).

Document refs are resolved through an :class:`EngineCatalog`: a ref
names ``(engine, document)``, which is what lets one server front the
hospital and Adex workloads (different DTDs, different engines) at
once.
"""

from __future__ import annotations

from threading import Condition, Lock
from time import monotonic
from typing import Dict, List, Optional, Tuple

from repro.errors import SecurityError
from repro.robustness.faults import trip as fault_trip
from repro.obs.flight import FlightRecorder
from repro.obs.metrics import record as _record, set_gauge as _set_gauge
from repro.obs.record import QueryRecord, RecordFanout, record_metrics
from repro.obs.slo import SLOTracker
from repro.obs.trace import NULL_SPAN, Tracer, new_trace_id
from repro.serving.admission import AdmissionController, shutdown_rejection
from repro.serving.protocol import QueryRequest, QueryResponse

__all__ = ["EngineCatalog", "QueryServer"]


class EngineCatalog(object):
    """Resolves a request's document ref to ``(engine, document)``.

    Thread-safe for concurrent resolve vs. add; refs are
    immutable-once-added (re-adding a ref raises) so resolution
    results never change under an in-flight request.
    """

    def __init__(self):
        self._entries: Dict[str, tuple] = {}
        self._lock = Lock()

    def add(self, ref: str, engine, document) -> "EngineCatalog":
        with self._lock:
            if ref in self._entries:
                raise SecurityError(
                    "document ref %r is already in the catalog" % (ref,)
                )
            self._entries[ref] = (engine, document)
        return self

    def resolve(self, ref: str) -> tuple:
        with self._lock:
            try:
                return self._entries[ref]
            except KeyError:
                raise SecurityError(
                    "unknown document ref %r (catalog has %s)"
                    % (ref, sorted(self._entries) or "no entries")
                )

    def refs(self) -> List[str]:
        with self._lock:
            return sorted(self._entries)

    def entries(self) -> Dict[str, tuple]:
        """A ref -> ``(engine, document)`` snapshot."""
        with self._lock:
            return dict(self._entries)

    def engines(self) -> List:
        """The distinct engines behind the catalog's refs (several
        refs may share one engine; each appears once, in first-ref
        order)."""
        entries = self.entries()
        seen = set()
        out = []
        for ref in sorted(entries):
            engine = entries[ref][0]
            if id(engine) not in seen:
                seen.add(id(engine))
                out.append(engine)
        return out

    def __contains__(self, ref: str) -> bool:
        with self._lock:
            return ref in self._entries


class QueryServer(object):
    """Multi-tenant server with per-tenant admission control; each
    request runs on its caller's thread.

    ``catalog``
        The :class:`EngineCatalog` resolving document refs.
    ``admission``
        The :class:`~repro.serving.admission.AdmissionController`
        (default: one with default tenant bounds).
    ``tracing``
        Whether to trace requests end to end.  When on (the default)
        every request gets a ``trace_id`` minted at ingress (unless
        the client sent one), a span tree (``request`` → ``queue_wait``
        → engine stages), tail-sampled retention in the
        :class:`~repro.obs.flight.FlightRecorder`, and per-tenant SLO
        accounting.  When off, the request path costs one attribute
        check — the engine still traces internally for its report.
    ``flight`` / ``slo``
        Override the default :class:`FlightRecorder` /
        :class:`~repro.obs.slo.SLOTracker` (sizing, SLO objective,
        seeded sampling for tests).  Ignored-by-default when
        ``tracing`` is off unless passed explicitly.
    ``workload``
        Workload intelligence (see :mod:`repro.obs.workload`).  The
        server always owns one
        :class:`~repro.obs.workload.WorkloadProfiler` (``workload``
        when passed, to size or share it; a default one otherwise) and
        installs it on every catalog engine at :meth:`start` that
        doesn't already have one, so a multi-engine catalog aggregates
        into a single per-tenant heavy-hitter report
        (``GET /debug/workload``, ``repro workload top``).
    """

    def __init__(
        self,
        catalog: EngineCatalog,
        admission: Optional[AdmissionController] = None,
        tracing: bool = True,
        flight: Optional[FlightRecorder] = None,
        slo: Optional[SLOTracker] = None,
        workload=None,
    ):
        self.catalog = catalog
        self.admission = admission if admission is not None else AdmissionController()
        self.tracing = bool(tracing)
        self.flight = flight if flight is not None else (
            FlightRecorder() if self.tracing else None
        )
        self.slo = slo if slo is not None else (
            SLOTracker() if self.tracing else None
        )
        # appended to each engine's record fan-out for served requests
        # (the flight recorder keeps span trees, so only when tracing)
        consumers = []
        if self.slo is not None:
            consumers.append(self.slo.observe)
        if self.flight is not None and self.tracing:
            consumers.append(self.flight.record)
        self._consumers = tuple(consumers)
        # the fan-out of requests that never reach an engine
        self._unrouted = RecordFanout((record_metrics,))
        if workload is None:
            from repro.obs.workload import WorkloadProfiler

            workload = WorkloadProfiler()
        self.workload = workload
        self._started_at: Optional[float] = None
        self._started = False
        self._stopped = False
        self._draining = False
        # The lifecycle flags and the in-flight count share one
        # condition: query() checks the flags and counts itself in one
        # step, so a drain that sees nothing in flight sees every later
        # call refused.  drain()/stop() wait on it for the count to
        # reach zero.
        self._lifecycle = Condition()
        self._inflight = 0
        self._drain_report: Optional[dict] = None

    # -- lifecycle -------------------------------------------------------

    def start(self) -> "QueryServer":
        """Open for requests (a call before this is refused with
        ``E_ADMISSION``, "server is not started")."""
        with self._lifecycle:
            if self._started:
                return self
            # one shared sketch across the catalog; an engine with its
            # own profiler (attached by the owner) keeps it
            for engine in self.catalog.engines():
                if engine.workload is None:
                    engine.enable_workload_profiler(profiler=self.workload)
            self._started = True
            self._started_at = monotonic()
        return self

    def stop(self, drain: bool = True) -> None:
        """Refuse new calls and close admission.  With ``drain``
        (default) the calls in flight, waiters included, finish first;
        without, waiters resolve to ``E_ADMISSION`` shutdown
        rejections at once and running requests finish on their own
        threads."""
        with self._lifecycle:
            first = not self._stopped
            self._stopped = True
        if drain:
            self._wait_idle(None)
        if first:
            self.admission.close("stopped")

    @property
    def draining(self) -> bool:
        return self._draining

    @property
    def stopped(self) -> bool:
        return self._stopped

    def begin_drain(self) -> None:
        """Stop intake immediately (``query`` rejects, ``/readyz``
        turns 503) without waiting — the first half of :meth:`drain`,
        callable from a signal handler."""
        with self._lifecycle:
            self._draining = True

    def drain(self, deadline_seconds: float = 10.0) -> dict:
        """Gracefully wind down: stop intake and let the requests in
        flight, admission waiters included, finish until
        ``deadline_seconds`` has elapsed.  Then close admission: the
        waiters still parked resolve to ``E_ADMISSION`` drain
        rejections (``rejected``), so no caller is left waiting for a
        slot.  Running requests get a one-second grace; ``unresolved``
        counts those still running after it.

        Always terminates within the deadline plus the grace.  Returns
        (and stores, for ``GET /debug/resilience``) a report of what
        happened.
        """
        started = monotonic()
        self.begin_drain()
        _record("resilience.drain.started")
        deadline = started + max(0.0, deadline_seconds)
        self._wait_idle(deadline)
        rejected = self.admission.close("draining")
        self._wait_idle(deadline + 1.0)
        with self._lifecycle:
            self._stopped = True
            unresolved = self._inflight
        duration = monotonic() - started
        report = {
            "duration_seconds": round(duration, 6),
            "deadline_seconds": deadline_seconds,
            "within_deadline": duration <= deadline_seconds,
            "rejected": rejected,
            "unresolved": unresolved,
        }
        self._drain_report = report
        _record("resilience.drain.rejected", rejected)
        _set_gauge("resilience.drain.duration_seconds", duration)
        return report

    def __enter__(self) -> "QueryServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def _wait_idle(self, until: Optional[float]) -> None:
        """Wait until nothing is in flight, or until the monotonic
        time ``until`` (``None``: no bound)."""
        with self._lifecycle:
            while self._inflight > 0:
                if until is None:
                    self._lifecycle.wait()
                    continue
                remaining = until - monotonic()
                if remaining <= 0:
                    return
                self._lifecycle.wait(remaining)

    # -- requests ----------------------------------------------------------

    def query(self, request: QueryRequest) -> QueryResponse:
        """Answer one request on the calling thread.  Never raises:
        malformed requests, calls before :meth:`start` or after a
        drain or stop, admission refusals and engine failures all come
        back as error responses.  Publishes exactly one
        :class:`~repro.obs.record.QueryRecord`."""
        return self.submit(request)

    def submit(self, request: QueryRequest) -> QueryResponse:
        """What :meth:`query` runs, with the same contract.  Since 10.0
        it answers on the calling thread and returns the response, not
        a future; the name stays because the benchmark's traced mode
        times each request from this call (``perfbench/probes.py``)."""
        arrived = monotonic()
        if self.tracing and not request.trace_id:
            request = request.with_(trace_id=new_trace_id())
        _record("serving.requests")
        with self._lifecycle:
            if self._stopped:
                refused = "stopped"
            elif self._draining:
                refused = "draining"
            elif not self._started:
                refused = "not started"
            else:
                refused = None
                self._inflight += 1
        if refused is not None:
            return self._refuse(request, refused, arrived)
        try:
            return self._answer(request, arrived)
        finally:
            with self._lifecycle:
                self._inflight -= 1
                if not self._inflight:
                    self._lifecycle.notify_all()

    def _answer(self, request: QueryRequest, arrived: float) -> QueryResponse:
        # Each request gets its own tracer (span trees are per-trace);
        # the engine must NOT be handed a disabled tracer — with no
        # tracer it builds its own enabled one, which QueryReport
        # timings depend on.
        tracer = Tracer() if self.tracing else None
        root_span = NULL_SPAN if tracer is None else tracer.span(
            "request",
            trace_id=request.trace_id,
            tenant=request.tenant_id,
            request_id=request.request_id,
        )
        # what the engine (or the failure before it) tells us about
        # the finished query; the engine fills it through ``finish``
        finished = {"policy": request.policy, "query": request.query}
        engine = None
        with root_span:
            try:
                fault_trip("serving.resolve")
                engine, document = self.catalog.resolve(request.document)
                with self.admission.admit(
                    request.tenant_id,
                    enqueued_at=arrived,
                    tracer=tracer,
                    criticality=request.criticality_class,
                ):
                    fault_trip("serving.execute")
                    response = engine.execute_request(
                        request,
                        document,
                        tracer=tracer,
                        finish=finished.update,
                    )
            except Exception as error:  # never leak to the caller
                # unresolved refs, admission rejections and serving
                # faults finish here, outside the engine
                finished["error"] = error
                response = QueryResponse.from_error(request, error)
            if not response.ok:
                root_span.set(error_code=response.error_code)
        latency = monotonic() - arrived
        slo = self.slo
        self._publish(
            engine,
            QueryRecord.finished(
                trace_id=request.trace_id,
                request_id=request.request_id,
                tenant=request.tenant_id,
                document=request.document,
                latency_seconds=latency,
                e2e_seconds=latency,
                slo_breach=(
                    slo is not None
                    and latency > slo.objective.threshold_seconds
                ),
                span=tracer.root if tracer is not None else None,
                served=True,
                **finished,
            ),
        )
        return response

    def _refuse(
        self, request: QueryRequest, reason: str, arrived: float
    ) -> QueryResponse:
        """Turn away a call made while the server is ``reason`` ("not
        started", "draining", "stopped")."""
        _record("serving.admission.rejected")
        error = shutdown_rejection(reason, request.tenant_id)
        self._publish(
            None,
            QueryRecord.finished(
                policy=request.policy,
                query=request.query,
                error=error,
                trace_id=request.trace_id,
                request_id=request.request_id,
                tenant=request.tenant_id,
                document=request.document,
                e2e_seconds=monotonic() - arrived,
                served=True,
            ),
        )
        return QueryResponse.from_error(request, error)

    def _publish(self, engine, record: QueryRecord) -> None:
        """Hand one served request's record to ``engine``'s fan-out
        (metrics, audit, workload) and then to the server's SLO and
        flight consumers.  A request that never reached an engine (an
        unresolved ref, a shutdown rejection) goes to the metrics
        registry and the server's consumers only."""
        fanout = engine.records if engine is not None else self._unrouted
        fanout.publish(record, self._consumers)

    # -- debug introspection ---------------------------------------------

    def trace_payload(
        self,
        n: Optional[int] = None,
        tenant: Optional[str] = None,
        status: Optional[str] = None,
    ) -> dict:
        """The ``GET /debug/traces`` payload (flight-recorder stats
        plus newest-first retained traces)."""
        if self.flight is None:
            return {"enabled": False, "stats": {}, "traces": []}
        payload = self.flight.to_dict(n=n, tenant=tenant, status=status)
        payload["enabled"] = True
        return payload

    def slo_payload(self) -> dict:
        """The ``GET /debug/slo`` payload (objective plus per-tenant
        burn rates)."""
        if self.slo is None:
            return {"enabled": False, "objective": None, "tenants": {}}
        payload = self.slo.snapshot()
        payload["enabled"] = True
        return payload

    def workload_payload(
        self, tenant: Optional[str] = None, n: Optional[int] = None
    ) -> dict:
        """The ``GET /debug/workload`` payload (per-tenant heavy
        hitters with count/latency-percentile/cache-hit stats)."""
        payload = self.workload.report(tenant=tenant, n=n)
        payload["enabled"] = True
        return payload

    def cache_payload(self) -> dict:
        """The ``GET /debug/cachez`` payload: one
        :func:`~repro.obs.introspect.engine_report` per distinct
        catalog engine (keyed by the refs it serves) plus a byte
        total across them."""
        by_ref: Dict[int, List[str]] = {}
        entries = self.catalog.entries()
        for ref, (engine, _) in sorted(entries.items()):
            by_ref.setdefault(id(engine), []).append(ref)
        engines = {}
        total = 0
        for engine in self.catalog.engines():
            report = engine.introspect()
            total += report.get("total_bytes", 0)
            engines["+".join(by_ref.get(id(engine), ["?"]))] = report
        return {"engines": engines, "total_bytes": total}

    def vars_payload(self) -> dict:
        """The ``GET /debug/vars`` payload: build/runtime identity and
        the numbers an operator checks first (uptime, admission queue
        depth, cache byte totals, workload roll-up)."""
        import repro

        uptime = (
            monotonic() - self._started_at
            if self._started_at is not None
            else 0.0
        )
        cache_bytes = 0
        for engine in self.catalog.engines():
            cache_bytes += engine.introspect().get("total_bytes", 0)
        return {
            "version": repro.__version__,
            "uptime_seconds": uptime,
            "tracing": self.tracing,
            "profiling": True,
            "documents": self.catalog.refs(),
            "queue_depth": self.admission.queue_depth(),
            "admission": self.admission.snapshot(),
            "cache_bytes": cache_bytes,
            "workload": self.workload.stats(),
        }

    def ready_payload(self) -> Tuple[bool, dict]:
        """The ``GET /readyz`` payload: whether this instance should
        receive traffic, with the reasons when it shouldn't.  Gates on
        lifecycle (started / draining / stopped) and catalog
        readiness."""
        reasons: List[str] = []
        if not self._started:
            reasons.append("not started")
        if self._draining:
            reasons.append("draining")
        if self._stopped:
            reasons.append("stopped")
        refs = self.catalog.refs()
        if not refs:
            reasons.append("empty catalog")
        ready = not reasons
        return ready, {
            "ready": ready,
            "reasons": reasons,
            "documents": refs,
            "draining": self._draining,
        }

    def resilience_payload(self) -> dict:
        """The ``GET /debug/resilience`` payload: shedding state and
        counts plus drain status — the overload story in one read."""
        overload = self.admission.overload
        return {
            "shedding": (
                dict(overload.snapshot(), enabled=True)
                if overload is not None
                else {"enabled": False}
            ),
            "shed": self.admission.shed_counts(),
            "drain": {
                "draining": self._draining,
                "stopped": self._stopped,
                "inflight": self._inflight,
                "report": self._drain_report,
            },
        }

    def publish_metrics(self) -> None:
        """Refresh the ``workload.*`` / ``cache.*`` gauges in the
        process-wide registry from live state (called by the HTTP
        front end before rendering ``/metrics``)."""
        from repro.obs.export import publish_cache_report, publish_workload

        publish_workload(self.workload)
        for engine in self.catalog.engines():
            publish_cache_report(engine.introspect())
