"""End-to-end secure query engine (the framework of Fig. 3).

``SecureQueryEngine`` ties the pieces together the way the paper's
architecture diagram does:

1. a security administrator registers access specifications (one per
   user class) against the document DTD;
2. each specification is compiled into a security view by Algorithm
   ``derive``; the *exposed* view DTD is available to the user class,
   while sigma and the document DTD stay hidden;
3. a user query over the view is rewritten (Algorithm ``rewrite``,
   after unfolding if the view is recursive) into one document query
   per view node it reaches, and each element target's query is
   optimized (Algorithm ``optimize``);
4. the per-target queries are evaluated on the document; every result
   is *projected through the view* (dummy relabeling, hidden
   descendants removed) before being returned.

The security view is never materialized to answer a query; projection
only copies the actual result subtrees.  Only the oracle,
:func:`~repro.core.materialize.materialize`, builds whole view trees
(an enabled :class:`~repro.obs.canary.SecurityCanary` keeps a few).

Serving-path amortization: step 3's outputs depend only on the policy
and the query's *shape* — not on the document, except for the
unfolding height of a recursive view, and not on the query's
constants.  Each request is parsed and split into a template (every
constant replaced by a slot parameter ``$_0``, ``$_1``, ...) and its
values (:func:`~repro.xpath.fingerprint.parameterize`); the engine
keeps a bounded LRU :class:`~repro.core.plancache.PlanCache` of
compiled templates (rewritten ASTs plus one executable
:mod:`~repro.xpath.plan` operator tree per view target) keyed on
``(policy, template text, height)``, and the plans bind the values
when they run.  A repeated shape, with the same or a new constant,
skips straight to evaluation.  Execution knobs are grouped in
:class:`~repro.core.options.ExecutionOptions` (the 1.x per-call
boolean keywords were removed in 2.0; see ``docs/api.md``).

Projection amortization: accessibility (Prop. 3.1) depends only on
``(policy, document)``, so each policy keeps one row-indexed
accessibility column per document beside the document's NodeTable
(see :mod:`~repro.core.projection`), built on the first projected
query and dropped with the NodeTable.  The view's Section 3.3
expansion is compiled once per view into a
:class:`~repro.core.projection.ViewProgram` (one per unfolded height
of a recursive view), and each query runs it with one
:class:`~repro.core.projection.Projector` over that column.

Thread safety: one engine may serve queries from many threads
concurrently (see ``docs/serving.md``).  Every cached artifact is
*immutable after build*.  NodeTables, accessibility columns, view
programs and unfolded rewriters are built under a single per-key
lock, so concurrent first requests for the same artifact serialize on
its build while requests for other keys proceed.  A compiled query is
built whole before it is cached (concurrent misses of one shape may
each compile it; the last one cached wins).  Once built, readers share
the structure without locking.
Administrative mutation (``register_policy``, ``drop_policy``,
``invalidate``) takes the engine's admin lock; queries in flight keep
the (still-consistent) structures they already hold.
"""

from __future__ import annotations

from threading import Lock, RLock
from time import perf_counter
from typing import Dict, List, Optional, Union as TypingUnion

from repro.errors import (
    QueryRejectedError,
    SecurityError,
)
from repro.obs.canary import SecurityCanary
from repro.obs.events import (
    EventPipeline,
    EventSink,
    PolicyEvent,
    audit_event,
)
from repro.obs.export import prometheus_text
from repro.obs.metrics import metrics_registry, record
from repro.obs.profile import ExplainProfile, ProfileCollector, ProfileNode
from repro.obs.record import QueryRecord, RecordFanout, record_metrics
from repro.obs.trace import Tracer
from repro.dtd.dtd import DTD
from repro.core.derive import derive
from repro.core.materialize import materialize_subtree
from repro.core.optimize import Optimizer
from repro.core.options import DEFAULT_OPTIONS, ExecutionOptions
from repro.core.plancache import CompiledQuery, PlanCache, PlanCacheStats
from repro.core.projection import (
    Projector,
    ViewProgram,
    accessibility_column,
)
from repro.core.rewrite import Rewriter
from repro.core.spec import AccessSpec
from repro.core.unfold import unfold_view
from repro.core.view import SecurityView
from repro.xpath.ast import Label, Path, union
from repro.xpath.fingerprint import (
    BoundQuery,
    bind_template,
    parameterize,
    query_fingerprint,
)
from repro.xpath.parser import parse_xpath
from repro.xpath.plan import PlanRuntime, compile_path


class _KeyedLocks:
    """One build lock per cache key.  Concurrent first requests for
    the same expensive artifact (a NodeTable, an accessibility
    column, an unfolded rewriter) serialize on their key's lock and
    build once; requests for different keys build in
    parallel.  Lock objects are tiny and keys are bounded by the
    engine's own caches, so entries are only pruned on
    :meth:`SecureQueryEngine.invalidate`."""

    __slots__ = ("_locks", "_guard")

    def __init__(self):
        self._locks: Dict[tuple, Lock] = {}
        self._guard = Lock()

    def __call__(self, key: tuple) -> Lock:
        lock = self._locks.get(key)
        if lock is None:
            with self._guard:
                lock = self._locks.setdefault(key, Lock())
        return lock

    def clear(self) -> None:
        with self._guard:
            self._locks.clear()


class QueryReport:
    """What happened to one query: the rewriting pipeline's stages,
    evaluation statistics, cache status, per-stage timings (derived
    from the engine's trace spans), the end-to-end wall time of the
    enclosing query span, and — when the query ran with
    ``ExecutionOptions(trace=True)`` — the per-operator
    :class:`~repro.obs.profile.ExplainProfile`.

    ``original`` is the parsed view query as the user wrote it.
    ``rewritten`` is the union of the per-view-target document
    queries; ``optimized`` is the union of the paths that actually run
    (each element target optimized, text targets as rewritten).  The
    engine compiles them over the query's template; both read with
    the request's own constants ``values`` substituted, on first read
    only (``rewritten_query``/``optimized_query`` are the deferred
    :class:`~repro.xpath.fingerprint.BoundQuery` forms, for consumers
    that render later or never).  Both are document-side and stay
    operator-side: the serving wire report is :meth:`view_dict`,
    which omits them."""

    __slots__ = (
        "policy",
        "original",
        "rewritten_query",
        "optimized_query",
        "result_count",
        "visits",
        "cache_hit",
        "timings",
        "total_seconds",
        "profile",
        "fingerprint",
    )

    def __init__(
        self,
        policy,
        original,
        rewritten,
        optimized,
        result_count,
        visits,
        cache_hit: bool = False,
        timings: Optional[Dict[str, float]] = None,
        total_seconds: Optional[float] = None,
        profile: Optional[ExplainProfile] = None,
        fingerprint=None,
        values: tuple = (),
    ):
        self.policy = policy
        self.original = original
        self.rewritten_query = BoundQuery(rewritten, values)
        self.optimized_query = BoundQuery(optimized, values)
        self.result_count = result_count
        self.visits = visits
        self.cache_hit = cache_hit
        self.timings = dict(timings) if timings else {}
        self.total_seconds = total_seconds
        self.profile = profile
        self.fingerprint = fingerprint

    @property
    def rewritten(self):
        return self.rewritten_query.path

    @property
    def optimized(self):
        return self.optimized_query.path

    def total_time(self) -> float:
        """End-to-end wall seconds of the query (the enclosing query
        span).  Stage entries may overlap — e.g. a warm cache hit
        carries the entry's build-time rewrite/optimize/compile stages
        alongside this request's parse and evaluate — so the sum of
        ``timings`` is only a fallback for reports built without a
        span (``total_seconds is None``)."""
        if self.total_seconds is not None:
            return self.total_seconds
        return sum(self.timings.values())

    def _timings_text(self) -> str:
        if not self.timings:
            return "-"
        return " | ".join(
            "%s %.3fms" % (stage, seconds * 1e3)
            for stage, seconds in self.timings.items()
        )

    def summary(self) -> str:
        """Self-contained multi-line rendering (the ``--explain``
        output of the CLI)."""
        lines = [
            "policy   : %s" % self.policy,
            "query    : %s" % self.original,
            "rewritten: %s" % self.rewritten,
            "optimized: %s" % self.optimized,
            "cache    : plan cache %s" % ("hit" if self.cache_hit else "miss"),
            "results  : %d  (node visits: %d)"
            % (self.result_count, self.visits),
            "timings  : %s" % self._timings_text(),
        ]
        if self.total_seconds is not None:
            lines.append("total    : %.3fms" % (self.total_seconds * 1e3))
        return "\n".join(lines)

    def view_dict(self) -> dict:
        """The view-level facts as a JSON-safe dict — what a tenant may
        read (the serving wire report): the view query, counts, cache
        status, fingerprint and timings."""
        return {
            "policy": self.policy,
            "query": str(self.original),
            "result_count": self.result_count,
            "visits": self.visits,
            "cache_hit": self.cache_hit,
            "fingerprint": str(self.fingerprint) if self.fingerprint else "",
            "timings": dict(self.timings),
            "total_seconds": (
                self.total_seconds
                if self.total_seconds is not None
                else self.total_time()
            ),
        }

    def to_dict(self) -> dict:
        """JSON-safe export (the CLI's ``--json`` payload):
        :meth:`view_dict` plus the document-side ``rewritten`` and
        ``optimized`` queries and, when the query was traced, the
        profile tree."""
        out = self.view_dict()
        out["rewritten"] = str(self.rewritten)
        out["optimized"] = str(self.optimized)
        if self.profile is not None:
            out["profile"] = self.profile.to_dict()
        return out

    def __repr__(self):
        return (
            "QueryReport(policy=%r, original=%s, rewritten=%s, "
            "optimized=%s, results=%d, visits=%d, cache_hit=%r, "
            "timings={%s})"
            % (
                self.policy,
                self.original,
                self.rewritten,
                self.optimized,
                self.result_count,
                self.visits,
                self.cache_hit,
                self._timings_text(),
            )
        )


class QueryResult(List):
    """The answer to one query: a list of result nodes (or strings for
    ``text()`` results) plus the :class:`QueryReport` describing how
    they were produced.

    ``QueryResult`` subclasses :class:`list`, so every pre-1.1 call
    site (iteration, indexing, ``== []`` comparisons) keeps working;
    new code reads ``result.report`` for cache status and timings."""

    __slots__ = ("report",)

    def __init__(self, results, report: QueryReport):
        super().__init__(results)
        self.report = report

    @property
    def results(self) -> List:
        """The result nodes as a plain list."""
        return list(self)


class _Policy:
    __slots__ = (
        "name", "spec", "view", "recursive", "rewriters", "programs",
        "columns",
    )

    def __init__(self, name: str, spec: AccessSpec, view: SecurityView):
        self.name = name
        self.spec = spec
        self.view = view
        # a DTD reachability walk: computed once here, never per query
        self.recursive = view.is_recursive()
        self.rewriters: Dict[Optional[int], Rewriter] = {}
        # unfolding height (None: not recursive) -> the compiled
        # expansion of that height's view; document-independent
        self.programs: Dict[Optional[int], ViewProgram] = {}
        # id(document) -> (NodeTable, accessibility column); a column
        # answers only for the very NodeTable its rows came from
        self.columns: Dict[int, tuple] = {}


class SecureQueryEngine:
    """Multi-policy secure query answering over one document DTD."""

    def __init__(
        self,
        dtd: DTD,
        strict: bool = False,
        plan_cache_size: int = 256,
        events: Optional[EventPipeline] = None,
    ):
        self.dtd = dtd
        self.strict = strict
        self._policies: Dict[str, _Policy] = {}
        self._optimizer = Optimizer(dtd)
        self._plan_cache = PlanCache(plan_cache_size)
        # id(document) -> (document, NodeTable); shared by policies
        self._stores: Dict[int, tuple] = {}
        # audit-event fan-out; inert (one attribute check per emit
        # site) until a sink is attached
        self._events = events if events is not None else EventPipeline()
        # one QueryRecord per finished query, handed in this order to
        # the metrics registry, the audit pipeline and the workload
        # profiler (a QueryServer appends its SLO tracker and flight
        # recorder); records.subscribe() adds consumers
        self.records = RecordFanout(
            (record_metrics, self._audit, self._profile)
        )
        self._canary: Optional[SecurityCanary] = None
        # workload heavy-hitter profiler; None (one attribute check on
        # the hot path) until enable_workload_profiler attaches one
        self._workload = None
        # concurrency: administrative mutation holds _admin_lock;
        # per-key artifact builds hold their _build_locks entry (see
        # the module docstring and docs/serving.md)
        self._admin_lock = RLock()
        self._build_locks = _KeyedLocks()

    # -- administration (security-officer side) ---------------------------

    def register_policy(
        self,
        name: str,
        spec: AccessSpec,
        preserve_choice_branches: bool = True,
        **parameters: str,
    ) -> SecurityView:
        """Register a user class: derive (and cache) its security view.
        ``parameters`` bind the spec's ``$parameters`` (Example 3.1's
        ``$wardNo``)."""
        if name in self._policies:
            raise SecurityError("policy %r is already registered" % name)
        if spec.dtd is not self.dtd and spec.dtd != self.dtd:
            raise SecurityError(
                "policy %r is specified against a different DTD" % name
            )
        concrete = spec.bind(**parameters) if parameters else spec
        if concrete.parameters():
            raise SecurityError(
                "policy %r has unbound parameters: %s"
                % (name, ", ".join(sorted(concrete.parameters())))
            )
        view = derive(
            concrete, preserve_choice_branches=preserve_choice_branches
        )
        with self._admin_lock:
            if name in self._policies:  # raced with another register
                raise SecurityError(
                    "policy %r is already registered" % name
                )
            self._policies[name] = _Policy(name, concrete, view)
            # a re-registered name (after drop_policy) must not serve
            # plans compiled against the old specification
            self._plan_cache.invalidate(name)
        self._emit(PolicyEvent, "register", name)
        return view

    def drop_policy(self, name: str) -> None:
        with self._admin_lock:
            existed = self._policies.pop(name, None) is not None
            self._plan_cache.invalidate(name)
        if existed:
            self._emit(PolicyEvent, "drop", name)

    def policies(self) -> List[str]:
        return sorted(self._policies)

    # -- user-visible surface ----------------------------------------------------

    def view_dtd(self, policy: str) -> DTD:
        """The exposed view DTD — everything a user of this policy may
        know about the document structure."""
        return self._policy(policy).view.exposed_dtd()

    def view_dtd_text(self, policy: str) -> str:
        return self.view_dtd(policy).to_dtd_text()

    # -- querying -------------------------------------------------------------------

    def rewrite_query(
        self,
        policy: str,
        query: TypingUnion[str, Path],
        document=None,
        use_cache: bool = True,
    ) -> Path:
        """Rewrite a view query into a document query (no evaluation).
        A document (or height bound) is only needed for recursive
        views (Section 4.2).  With ``use_cache`` (default) the result
        is served from — and primes — the engine's plan cache."""
        entry = self._policy(policy)
        parsed, template, values = self._parameterized(entry, query)
        if use_cache:
            compiled, _ = self._compiled(entry, template, document)
            return bind_template(compiled.rewritten, values)
        return self._rewriter(entry, document).rewrite(parsed)

    def query(
        self,
        policy: str,
        query: TypingUnion[str, Path],
        document,
        options: Optional[ExecutionOptions] = None,
    ) -> QueryResult:
        """Answer a view query on ``document``.

        The view stays virtual (the paper's approach): the query is
        rewritten over the document and its compiled plan runs
        set-at-a-time over a cached columnar
        :class:`~repro.xmlmodel.store.NodeTable` (built per document,
        dropped by :meth:`invalidate`).  Execution knobs (plan cache,
        tracing, limits) are grouped in ``options``, an
        :class:`~repro.core.options.ExecutionOptions`.

        Returns a :class:`QueryResult` — a list of results (copies
        projected through the view) whose ``report`` attribute carries
        the rewriting stages, cache status, and per-stage timings.

        The 1.x per-call boolean keywords (``optimize=``, ``project=``,
        ...) were removed in 2.0; pass
        ``options=ExecutionOptions(...)`` (see ``docs/api.md``).
        """
        options = self._resolve_options(options)
        return self._query_one(policy, query, document, options)

    def execute_request(
        self,
        request,
        document,
        tracer: Optional[Tracer] = None,
        finish=None,
    ):
        """Answer one frozen :class:`~repro.serving.protocol.QueryRequest`
        against the (caller-resolved) ``document``, returning a
        :class:`~repro.serving.protocol.QueryResponse`.

        Unlike :meth:`query`, errors do not propagate: any exception
        becomes an error response — a :class:`~repro.errors.ReproError`
        with its stable code, anything else as ``E_UNKNOWN`` with the
        message withheld (the record keeps it) — the wire contract of
        the serving layer.  A caller-supplied ``tracer`` (the serving
        layer's per-request one) collects the engine's stage spans
        under the caller's open span instead of a private tracer.

        ``finish`` is the serving layer's hook.  When given, the engine
        does not record the query: it calls ``finish(**fields)`` with
        what it knows (policy, query, report or error, slow threshold,
        canary violations), and the caller, which times the whole
        request, builds the :class:`~repro.obs.record.QueryRecord`."""
        from repro.serving.protocol import QueryResponse

        options = self._resolve_options(request.options)
        try:
            result = self._query_one(
                request.policy,
                request.query,
                document,
                options,
                tracer=tracer,
                request=request,
                finish=finish,
            )
        except Exception as error:
            return QueryResponse.from_error(request, error)
        return QueryResponse.from_result(request, result)

    def _query_one(
        self,
        policy: str,
        query: TypingUnion[str, Path],
        document,
        options: ExecutionOptions,
        tracer: Optional[Tracer] = None,
        request=None,
        finish=None,
    ) -> QueryResult:
        """The shared core of :meth:`query` / :meth:`explain` /
        :meth:`execute_request`: answer, run the sampled canary, then
        record the finished query as one
        :class:`~repro.obs.record.QueryRecord` published to
        :attr:`records` (or handed to the serving layer's ``finish``,
        see :meth:`execute_request`).  ``request`` supplies the ids of
        an :meth:`execute_request` call; library calls are attributed
        to the policy as their tenant."""
        started = perf_counter()
        results = report = error = None
        violations = 0
        try:
            results, report = self._execute(
                policy, query, document, options, tracer=tracer
            )
            violations = self._run_canary(policy, document, results, report)
        except Exception as caught:
            error = caught
        fields = dict(
            policy=policy,
            query=query,
            report=report,
            error=error,
            slow_query_threshold=options.slow_query_threshold,
            canary_violations=violations,
        )
        if finish is not None:
            finish(**fields)
        else:
            seconds = perf_counter() - started
            ids = {"tenant": policy}
            if request is not None:
                ids = dict(
                    tenant=request.tenant_id,
                    trace_id=request.trace_id,
                    request_id=request.request_id,
                    document=request.document,
                )
            self.records.publish(
                QueryRecord.finished(
                    latency_seconds=seconds,
                    **ids,
                    **fields,
                )
            )
        if error is not None:
            raise error
        return QueryResult(results, report)

    def explain(
        self,
        policy: str,
        query: TypingUnion[str, Path],
        document,
        options: Optional[ExecutionOptions] = None,
    ) -> QueryReport:
        """Like :meth:`query` but returns only the
        :class:`QueryReport`: the rewriting pipeline's stages, cache
        status, per-stage timings, and evaluation statistics."""
        return self.query(policy, query, document, options).report

    def invalidate(self, policy: Optional[str] = None) -> None:
        """Drop cached NodeTables, accessibility columns, compiled
        query plans and the canary's oracle views (call after document
        or policy updates).  Without ``policy``, plans of all policies
        clear; NodeTables, and with them every policy's columns, and
        the canary's views clear either way.

        Safe to call with queries in flight: in-flight executions keep
        the (internally consistent) structures they already hold and
        answer from them; only *new* lookups rebuild."""
        with self._admin_lock:
            if policy is not None:
                self._policy(policy)  # an unknown name is an error
            for entry in self._policies.values():
                entry.columns.clear()
            self._stores.clear()
            self._plan_cache.invalidate(policy)
            self._build_locks.clear()
            if self._canary is not None:
                self._canary.clear_views()
        self._emit(PolicyEvent, "invalidate", policy if policy else "*")

    # -- observability -----------------------------------------------------------

    @property
    def plan_cache(self) -> PlanCache:
        """The engine's compiled-query cache (inspection/tuning)."""
        return self._plan_cache

    def plan_cache_stats(self) -> PlanCacheStats:
        """Hit/miss/eviction/invalidation counters of the plan cache."""
        return self._plan_cache.stats()

    def metrics(self) -> dict:
        """A snapshot of the process-wide metrics registry (plan-cache
        traffic, NodeTable builds, stage latencies, result
        cardinalities).  Recording is off by default — call
        :func:`repro.obs.enable_metrics` first; see
        ``docs/observability.md``."""
        return metrics_registry().snapshot()

    def export_prometheus(self) -> str:
        """The process-wide metrics registry in Prometheus text
        exposition format (serve it from a ``/metrics`` HTTP handler;
        see ``docs/audit.md`` for a scrape example)."""
        return prometheus_text(metrics_registry())

    # -- workload intelligence / cache introspection -----------------------------

    @property
    def workload(self):
        """The attached
        :class:`~repro.obs.workload.WorkloadProfiler` (``None`` when
        profiling is off — the hot-path cost of "off" is one attribute
        check per query)."""
        return self._workload

    def enable_workload_profiler(
        self, capacity: int = 64, profiler=None
    ):
        """Attach a workload profiler (per-tenant query-shape heavy
        hitters; see ``docs/observability.md``).  Pass an existing
        ``profiler`` to share one sketch across several engines — the
        serving layer does this so a catalog of engines aggregates
        into one report."""
        if profiler is None:
            from repro.obs.workload import WorkloadProfiler

            profiler = WorkloadProfiler(capacity=capacity)
        self._workload = profiler
        return profiler

    def disable_workload_profiler(self) -> None:
        """Detach the profiler (its accumulated data stays readable by
        whoever still holds a reference)."""
        self._workload = None

    def workload_report(
        self, tenant: Optional[str] = None, n: Optional[int] = None
    ) -> dict:
        """The profiler's JSON-safe heavy-hitter report (top-``n``
        query shapes per tenant).  Empty when profiling is off."""
        if self._workload is None:
            return {"capacity": 0, "tenants": {}}
        return self._workload.report(tenant=tenant, n=n)

    def introspect(self) -> dict:
        """One JSON-safe report of what this engine's caches hold and
        cost: plan cache (entries, bytes, hit/eviction counters),
        columnar NodeTables, accessibility columns and the canary's
        oracle view trees, each with entry counts and byte estimates (see
        :mod:`repro.obs.introspect`)."""
        from repro.obs.introspect import engine_report

        return engine_report(self)

    # -- audit events / canary ---------------------------------------------------

    @property
    def events(self) -> EventPipeline:
        """The engine's audit-event pipeline.  Inert until a sink is
        attached; see :mod:`repro.obs.events` and ``docs/audit.md``."""
        return self._events

    def add_sink(self, sink: EventSink) -> EventSink:
        """Attach an audit-event sink (returns it, for one-liners)."""
        return self._events.add_sink(sink)

    def remove_sink(self, sink: EventSink) -> None:
        self._events.remove_sink(sink)

    @property
    def canary(self) -> Optional[SecurityCanary]:
        """The active security canary, if any."""
        return self._canary

    def enable_canary(
        self, sample_rate: float = 1.0, seed: Optional[int] = None
    ) -> SecurityCanary:
        """Re-check a ``sample_rate`` fraction of answered queries
        against the materialized-view oracle, emitting a
        :class:`~repro.obs.events.CanaryEvent` per check (see
        :mod:`repro.obs.canary`).  The canary keeps a few oracle views
        (one build per policy and document); evaluating the query on
        one costs O(view) per sampled query — keep the rate small in
        production."""
        self._canary = SecurityCanary(sample_rate, seed=seed)
        return self._canary

    def disable_canary(self) -> None:
        self._canary = None

    def _emit(self, factory, *arguments) -> None:
        """Build and emit an audit event — but only when a sink is
        listening, so the inactive cost is one attribute check."""
        if self._events.active:
            self._events.emit(factory(*arguments))

    def _audit(self, record: QueryRecord) -> None:
        """Record consumer: the finished query's audit event, built
        only when a sink is listening."""
        if self._events.active:
            self._events.emit(audit_event(record))

    def _profile(self, record: QueryRecord) -> None:
        """Record consumer: the attached workload profiler, if any."""
        profiler = self._workload
        if profiler is not None:
            profiler.record_query(record)

    def _run_canary(self, policy, document, results, report) -> int:
        """The sampled oracle comparison of one answered query (see
        :class:`~repro.obs.canary.SecurityCanary`); returns the
        violations it found.  Guarded: a canary failure is counted,
        never raised — the user already has their answer."""
        canary = self._canary
        if canary is None or document is None or not canary.should_sample():
            return 0
        try:
            view_tree = canary.oracle_view(self._policy(policy), document)
            event = canary.check(
                policy, report.original, results, view_tree=view_tree
            )
            record("canary.checks")
            if event.violations:
                record("canary.violations", event.violations)
            if self._events.active:
                self._events.emit(event)
            return event.violations
        except Exception:
            record("canary.failures")
            return 0

    # -- internals -----------------------------------------------------------------------

    @staticmethod
    def _resolve_options(
        options: Optional[ExecutionOptions],
    ) -> ExecutionOptions:
        if options is None:
            return DEFAULT_OPTIONS
        if not isinstance(options, ExecutionOptions):
            raise TypeError(
                "options must be an ExecutionOptions (the 1.x per-call "
                "boolean keywords were removed in 2.0 — see the "
                "migration note in docs/api.md), got %r" % (options,)
            )
        return options

    def _policy(self, name: str) -> _Policy:
        try:
            return self._policies[name]
        except KeyError:
            raise SecurityError("unknown policy %r" % name) from None

    def _parameterized(self, entry: _Policy, query: TypingUnion[str, Path]):
        """``(parsed, template, values)`` of one request: the query as
        written, and its split into a template and constants."""
        parsed = parse_xpath(query) if isinstance(query, str) else query
        if self.strict:
            self._check_labels(entry, parsed)
        template, values = parameterize(parsed)
        return parsed, template, values

    @staticmethod
    def _check_labels(entry: _Policy, query: Path) -> None:
        labels = entry.view.labels()
        for node in query.iter_nodes():
            if isinstance(node, Label) and node.name not in labels:
                raise QueryRejectedError(
                    "label %r is not part of the %r view DTD"
                    % (node.name, entry.name),
                    label=node.name,
                )

    def _rewriter(self, entry: _Policy, document) -> Rewriter:
        if not entry.recursive:
            height = None
        else:
            height = self._unfold_height(entry, document)
        rewriter = entry.rewriters.get(height)
        if rewriter is None:
            # double-checked: concurrent first rewrites of one policy
            # (expensive for recursive views — a full unfolding) build
            # once and share the immutable Rewriter
            with self._build_locks(("rewriter", entry.name, height)):
                rewriter = entry.rewriters.get(height)
                if rewriter is None:
                    rewriter = Rewriter(
                        entry.view
                        if height is None
                        else unfold_view(entry.view, height)
                    )
                    entry.rewriters[height] = rewriter
        return rewriter

    def _unfold_height(self, entry: _Policy, document) -> int:
        if document is None:
            raise SecurityError(
                "policy %r has a recursive view DTD; rewriting needs the "
                "document (its height bounds the unfolding, Section 4.2)"
                % entry.name
            )
        if isinstance(document, int):
            return document
        # recorded by the NodeTable build: no walk per query
        return self._store_for(document).height

    def _store_for(self, document):
        """The (cached) columnar :class:`NodeTable` of ``document``,
        built once per document under its key's lock.  A failed build
        propagates like any other query failure and caches nothing."""
        from repro.xmlmodel.store import NodeTable

        cached = self._stores.get(id(document))
        if cached is not None and cached[0] is document:
            return cached[1]
        with self._build_locks(("store", id(document))):
            cached = self._stores.get(id(document))
            if cached is not None and cached[0] is document:
                return cached[1]
            store = NodeTable(document)
            self._stores[id(document)] = (document, store)
        return store

    def _projector(self, entry: _Policy, compiled: CompiledQuery, runtime):
        """One query's :class:`~repro.core.projection.Projector`: the
        compiled program of ``compiled``'s view, run over the
        ``runtime``'s NodeTable, reading ``entry``'s accessibility
        column of the document and counting its visits (and charging
        its budget) with the query's plans.  The program is built once
        per view, the column once per (policy, NodeTable), each under
        its key's lock."""
        height = compiled.height
        program = entry.programs.get(height)
        # a program answers only for the view its query was compiled
        # against (its keys are that view's)
        if program is None or program.view is not compiled.view:
            with self._build_locks(("program", entry.name, height)):
                program = entry.programs.get(height)
                if program is None or program.view is not compiled.view:
                    program = ViewProgram(compiled.view)
                    entry.programs[height] = program
        store = runtime.store
        key = id(store.root)
        cached = entry.columns.get(key)
        if cached is None or cached[0] is not store:
            with self._build_locks(("access", entry.name, key)):
                cached = entry.columns.get(key)
                if cached is None or cached[0] is not store:
                    cached = (store, accessibility_column(store, entry.spec))
                    entry.columns[key] = cached
        return Projector(program, store, cached[1], runtime)

    # -- resource governance -------------------------------------------------

    @staticmethod
    def _budget_for(options: ExecutionOptions):
        """A fresh per-query budget from ``options.limits`` (``None``
        when the query runs ungoverned — the common case, costing one
        attribute check per enforcement site)."""
        limits = options.limits
        if limits is None or limits.unlimited:
            return None
        return limits.budget()

    # -- plan compilation --------------------------------------------------------

    def _compiled(
        self,
        entry: _Policy,
        template: Path,
        document,
        use_cache: bool = True,
        tracer: Optional[Tracer] = None,
    ):
        """The compilation of the query shape ``template`` (see
        :meth:`_parameterized`) under ``entry``'s policy:
        ``(CompiledQuery, cache_hit)``.  The cache key is ``(policy,
        template text, height)``, so every constant of a shape shares
        one entry; the caller binds the constants when the plans run.
        A miss rewrites once per view target, optimizes each element
        target's path and compiles every target's plan before the
        entry is cached; text targets run their raw rewritten path.
        With ``use_cache=False`` the cache is neither consulted nor
        primed (compilation still runs, once per call).  Stage spans
        open on ``tracer`` (a private one if the caller has none); the
        measured durations feed the entry's ``timings``."""
        template_text = str(template)
        height = (
            self._unfold_height(entry, document) if entry.recursive else None
        )
        key = (entry.name, template_text, height)
        if use_cache:
            cached = self._plan_cache.get(key)
            if cached is not None:
                return cached, True
        if tracer is None:
            tracer = Tracer()
        timings: Dict[str, float] = {}
        rewriter = self._rewriter(entry, document)
        with tracer.span("rewrite") as span:
            targets, rewritten = rewriter.rewrite_targets(template)
        timings["rewrite"] = span.duration
        with tracer.span("optimize") as span:
            paths = []
            for target, path in sorted(targets.items()):
                is_text = target.startswith("#text")
                if not is_text:
                    path = self._optimizer.optimize(path)
                paths.append((target, is_text, path))
        timings["optimize"] = span.duration
        with tracer.span("compile") as span:
            plans = tuple(
                (target, is_text, compile_path(path))
                for target, is_text, path in paths
            )
        timings["compile"] = span.duration
        compiled = CompiledQuery(
            entry.name,
            template_text,
            height,
            template,
            rewritten,
            union(path for _, _, path in paths),
            rewriter.view,
            plans,
            # computed once per compilation and carried by the cache
            # entry; a template masks to its query's shape
            query_fingerprint(template),
            timings,
        )
        if use_cache:
            self._plan_cache.put(key, compiled)
        return compiled, False

    # -- execution ---------------------------------------------------------------

    def _execute(
        self,
        policy,
        query,
        document,
        options: ExecutionOptions,
        tracer: Optional[Tracer] = None,
    ):
        entry = self._policy(policy)
        if tracer is None:
            tracer = Tracer()
        budget = self._budget_for(options)
        # a slow-query threshold implies collection: the whole point is
        # that an outlier's event arrives with its profile attached
        collect = options.trace or options.slow_query_threshold is not None
        collector = ProfileCollector() if collect else None
        with tracer.span("query", policy=policy) as query_span:
            with tracer.span("parse") as parse_span:
                parsed, template, values = self._parameterized(entry, query)
            compiled, cache_hit = self._compiled(
                entry,
                template,
                document,
                use_cache=options.use_cache,
                tracer=tracer,
            )
            if budget is not None:
                # the deadline covers compilation too
                budget.checkpoint()
            runtime = PlanRuntime(
                self._store_for(document),
                profile=collector,
                budget=budget,
                params=values,
            )
            with tracer.span("evaluate") as evaluate_span:
                results, project_seconds = self._execute_projected(
                    entry, compiled, document, runtime, budget=budget
                )
            evaluate_span.set(results=len(results), visits=runtime.visits)
        # parse runs per request; the compile stages are the entry's
        timings = {"parse": parse_span.duration}
        timings.update(compiled.timings)
        timings["evaluate"] = evaluate_span.duration
        # nested inside evaluate: projecting the results through the
        # view, the first query's accessibility column build included
        timings["project"] = project_seconds
        report = QueryReport(
            policy,
            parsed,
            compiled.rewritten,
            compiled.optimized,
            len(results),
            runtime.visits,
            cache_hit=cache_hit,
            timings=timings,
            total_seconds=query_span.duration,
            profile=self._build_profile(compiled, collector, values),
            fingerprint=compiled.fingerprint,
            values=values,
        )
        return results, report

    def _build_profile(
        self,
        compiled: CompiledQuery,
        collector: Optional[ProfileCollector],
        values: tuple,
    ) -> Optional[ExplainProfile]:
        """Assemble the EXPLAIN ANALYZE tree for a traced execution:
        one root per view-target plan, annotated with the collector's
        stats and showing the constants ``values`` bound."""
        if collector is None:
            return None
        return ExplainProfile(
            str(bind_template(compiled.optimized, values)),
            roots=[
                ProfileNode(
                    "target", target, None, [plan.profile(collector, values)]
                )
                for target, _, plan in compiled.plans
            ],
            events=collector.events,
        )

    def _execute_projected(
        self,
        entry: _Policy,
        compiled: CompiledQuery,
        document,
        runtime,
        budget=None,
    ):
        """Evaluate per target view node so each raw result can be
        projected through the view (dummies relabeled, hidden
        descendants removed): ``(results, project_seconds)``, the
        second being the time spent projecting.  One projector serves
        every result of the query; it is built on the first element
        result.  Result charging is incremental so a ``max_results``
        breach stops before projecting further subtrees."""
        project_seconds = 0.0
        projected = []
        seen = set()
        projector = None
        for target, is_text, plan in compiled.plans:
            if is_text:
                for node in plan.execute(document, runtime=runtime):
                    if id(node) not in seen:
                        seen.add(id(node))
                        projected.append(node.value)
                if budget is not None:
                    budget.charge_results(len(projected))
                continue
            for node in plan.execute(document, runtime=runtime):
                if id(node) in seen:
                    continue
                seen.add(id(node))
                started = perf_counter()
                if projector is None:
                    projector = self._projector(entry, compiled, runtime)
                projected.append(
                    materialize_subtree(
                        document,
                        compiled.view,
                        entry.spec,
                        target,
                        node,
                        projector=projector,
                    )
                )
                project_seconds += perf_counter() - started
                if budget is not None:
                    budget.charge_results(len(projected))
        return projected, project_seconds
