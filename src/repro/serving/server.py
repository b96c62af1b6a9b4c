"""The concurrent multi-tenant query server.

:class:`QueryServer` is a stdlib thread-pool front end over one or
more :class:`~repro.core.engine.SecureQueryEngine` instances.  The
contract:

* :meth:`QueryServer.submit` **never raises** — every request resolves
  to a :class:`~repro.serving.protocol.QueryResponse` future, failures
  included (typed error codes, exit-code and audit parity with the
  CLI).
* Per-tenant admission (:mod:`repro.serving.admission`) is applied
  around execution, so one flooding tenant exhausts only its own
  slots and queue.
* A worker takes one queued request at a time, resolves its document
  ref, and answers it with one
  :meth:`~repro.core.engine.SecureQueryEngine.execute_request` call,
  so a request's answer, budget verdict and visit count never depend
  on which other requests are queued with it.
* Every submitted request that is not cancelled while queued finishes
  as exactly one :class:`~repro.obs.record.QueryRecord`, also when it
  never reaches an engine (an unknown document ref, a drain or stop
  rejection).

Document refs are resolved through an :class:`EngineCatalog`: a ref
names ``(engine, document)``, which is what lets one server front the
hospital and Adex workloads (different DTDs, different engines) at
once.
"""

from __future__ import annotations

import itertools
import queue
from concurrent.futures import Future
from threading import Condition, Lock, Thread
from time import monotonic
from typing import Dict, List, Optional, Tuple

from repro.errors import SecurityError
from repro.robustness.faults import trip as fault_trip
from repro.obs.flight import FlightRecorder
from repro.obs.metrics import record as _record, set_gauge as _set_gauge
from repro.obs.record import QueryRecord, RecordFanout, record_metrics
from repro.obs.slo import SLOTracker
from repro.obs.trace import NULL_SPAN, Tracer, new_trace_id
from repro.serving.admission import AdmissionController
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


class _Pending(object):
    __slots__ = ("request", "future", "enqueued_at")

    def __init__(self, request: QueryRequest, future: Future, enqueued_at: float):
        self.request = request
        self.future = future
        self.enqueued_at = enqueued_at


_STOP = object()


class QueryServer(object):
    """Thread-pool server with per-tenant admission control.

    ``catalog``
        The :class:`EngineCatalog` resolving document refs.
    ``admission``
        The :class:`~repro.serving.admission.AdmissionController`
        (default: one with default tenant bounds).
    ``workers``
        Worker threads draining the shared request queue.
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
        workers: int = 4,
        tracing: bool = True,
        flight: Optional[FlightRecorder] = None,
        slo: Optional[SLOTracker] = None,
        workload=None,
    ):
        if workers < 1:
            raise ValueError("workers must be >= 1, got %r" % (workers,))
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
        self._queue: "queue.Queue" = queue.Queue()
        self._ids = itertools.count(1)
        self._threads = [
            Thread(
                target=self._worker,
                name="repro-serve-%d" % index,
                daemon=True,
            )
            for index in range(workers)
        ]
        self._started = False
        self._stopped = False
        self._draining = False
        self._lifecycle = Lock()
        # in-flight accounting: submitted-but-unresolved requests;
        # drain() waits on the condition until it reaches zero
        self._inflight = 0
        self._inflight_cond = Condition()
        self._drain_report: Optional[dict] = None

    # -- lifecycle -------------------------------------------------------

    def start(self) -> "QueryServer":
        with self._lifecycle:
            if self._started:
                return self
            self._started = True
            self._started_at = monotonic()
        # one shared sketch across the catalog; an engine with its own
        # profiler (attached by the owner) keeps it
        for engine in self.catalog.engines():
            if engine.workload is None:
                engine.enable_workload_profiler(profiler=self.workload)
        for thread in self._threads:
            thread.start()
        return self

    def stop(self, drain: bool = True) -> None:
        """Stop the workers.  With ``drain`` (default) queued requests
        finish first; without, they resolve to ``E_ADMISSION``
        shutdown rejections."""
        with self._lifecycle:
            if self._stopped or not self._started:
                self._stopped = True
                return
            self._stopped = True
        if not drain:
            while True:
                try:
                    pending = self._queue.get_nowait()
                except queue.Empty:
                    break
                if pending is not _STOP:
                    self._reject_shutdown(pending)
        for _ in self._threads:
            self._queue.put(_STOP)
        for thread in self._threads:
            thread.join()

    @property
    def draining(self) -> bool:
        return self._draining

    @property
    def stopped(self) -> bool:
        return self._stopped

    def begin_drain(self) -> None:
        """Stop intake immediately (``submit`` rejects, ``/readyz``
        turns 503) without waiting — the first half of :meth:`drain`,
        callable from a signal handler."""
        with self._lifecycle:
            self._draining = True

    def drain(self, deadline_seconds: float = 10.0) -> dict:
        """Gracefully wind down: stop intake, let the workers flush
        the queue and in-flight requests, and — once everything is
        resolved or ``deadline_seconds`` has elapsed — stop the
        workers.  Requests still queued at the deadline resolve to
        ``E_ADMISSION`` drain rejections; **every** submitted future
        is resolved by the time this returns.

        Always terminates: the wait is bounded by the deadline plus a
        one-second join grace for workers mid-request.  Returns (and
        stores, for ``GET /debug/resilience``) a report of what
        happened.
        """
        started = monotonic()
        self.begin_drain()
        _record("resilience.drain.started")
        deadline = started + max(0.0, deadline_seconds)
        with self._inflight_cond:
            while self._inflight > 0 and monotonic() < deadline:
                self._inflight_cond.wait(
                    timeout=min(0.05, max(0.001, deadline - monotonic()))
                )
        # past the deadline (or already idle): reject whatever is
        # still queued so no future is left hanging
        rejected = 0
        while True:
            try:
                pending = self._queue.get_nowait()
            except queue.Empty:
                break
            if pending is not _STOP:
                self._reject_shutdown(pending)
                rejected += 1
        with self._lifecycle:
            stop_workers = self._started and not self._stopped
            self._stopped = True
        if stop_workers:
            for _ in self._threads:
                self._queue.put(_STOP)
            for thread in self._threads:
                thread.join(
                    timeout=max(0.05, deadline - monotonic() + 1.0)
                )
        with self._inflight_cond:
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

    # -- submission ------------------------------------------------------

    def submit(self, request: QueryRequest) -> "Future[QueryResponse]":
        """Enqueue one request.  Never raises: malformed requests,
        post-shutdown and mid-drain submissions resolve the future to
        an error response like any other failure."""
        if self.tracing and not request.trace_id:
            request = request.with_(trace_id=new_trace_id())
        future: "Future[QueryResponse]" = Future()
        pending = _Pending(request, future, monotonic())
        _record("serving.requests")
        if self._stopped or self._draining:
            self._reject_shutdown(pending, track=False)
            return future
        with self._inflight_cond:
            self._inflight += 1
        self._queue.put(pending)
        _set_gauge("serving.queue_depth", self._queue.qsize())
        return future

    def query(
        self, request: QueryRequest, timeout: Optional[float] = None
    ) -> QueryResponse:
        """Submit and wait — the synchronous convenience spelling."""
        return self.submit(request).result(timeout=timeout)

    def next_request_id(self) -> str:
        """A server-unique request id for callers that don't mint
        their own."""
        return "r%d" % next(self._ids)

    # -- worker loop -----------------------------------------------------

    def _worker(self) -> None:
        while True:
            pending = self._queue.get()
            if pending is _STOP:
                return
            _set_gauge("serving.queue_depth", self._queue.qsize())
            # a future cancelled while queued is abandoned here — it
            # must not occupy an admission slot or engine time, and it
            # must still leave the in-flight accounting balanced
            if pending.future.set_running_or_notify_cancel():
                self._run_one(pending)
            else:
                _record("serving.cancelled")
                self._finish(pending, None)

    def _run_one(self, item: _Pending) -> None:
        request = item.request
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
        started = monotonic()
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
                    enqueued_at=item.enqueued_at,
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
            except BaseException as error:  # never leak through a future
                # unresolved refs, admission rejections and serving
                # faults finish here, outside the engine
                finished["error"] = error
                response = QueryResponse.from_error(request, error)
            if not response.ok:
                root_span.set(error_code=response.error_code)
        latency = monotonic() - started
        slo = self.slo
        self._publish(
            engine,
            QueryRecord.finished(
                trace_id=request.trace_id,
                request_id=request.request_id,
                tenant=request.tenant_id,
                document=request.document,
                latency_seconds=latency,
                e2e_seconds=monotonic() - item.enqueued_at,
                slo_breach=(
                    slo is not None
                    and latency > slo.objective.threshold_seconds
                ),
                span=tracer.root if tracer is not None else None,
                served=True,
                **finished,
            ),
        )
        self._finish(item, response)

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
        the numbers an operator checks first (uptime, worker count,
        queue depths, cache byte totals, workload roll-up)."""
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
            "workers": len(self._threads),
            "tracing": self.tracing,
            "profiling": True,
            "documents": self.catalog.refs(),
            "queue_depth": self._queue.qsize(),
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

    # -- helpers ---------------------------------------------------------

    def _finish(
        self, item: _Pending, response: Optional[QueryResponse]
    ) -> None:
        """Resolve one submitted request exactly once: set the future
        (unless cancelled, or ``response`` is ``None`` for an
        abandoned-future skip) and balance the in-flight count."""
        if response is not None and not item.future.cancelled():
            try:
                item.future.set_result(response)
            except Exception:
                pass  # lost the race with a concurrent cancel
        with self._inflight_cond:
            self._inflight -= 1
            self._inflight_cond.notify_all()

    def _reject_shutdown(self, item: _Pending, track: bool = True) -> None:
        from repro.errors import AdmissionRejected

        _record("serving.admission.rejected")
        request = item.request
        reason = "draining" if self._draining and not self._stopped \
            else "stopped"
        error = AdmissionRejected(
            "server is %s" % reason,
            tenant=request.tenant_id,
            retry_after_seconds=1.0,
        )
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
                e2e_seconds=monotonic() - item.enqueued_at,
                served=True,
            ),
        )
        response = QueryResponse.from_error(request, error)
        if track:
            self._finish(item, response)
        elif not item.future.cancelled():
            # rejected at submit time, before entering the in-flight
            # count — resolve without decrementing it
            item.future.set_result(response)
