"""One immutable record per finished query, and its fan-out.

A finished query (answered, failed, denied, or rejected at admission)
is described once, by a :class:`QueryRecord` built where it finishes:
``SecureQueryEngine._query_one`` for library calls and
``QueryServer._run_one`` for served requests.  A :class:`RecordFanout`
hands that one object, in order, to the metrics registry, the audit
pipeline, the workload profiler and, when served, the SLO tracker and
the flight recorder.  All of it is operator-side: a tenant learns only
the view DTD and ``p(Tv)``.
"""

from __future__ import annotations

from itertools import chain
from time import time
from typing import Callable, Dict, Iterable, NamedTuple, Optional

from repro.errors import QueryRejectedError, error_code
from repro.obs.metrics import LATENCY_BUCKETS, metrics_enabled, metrics_registry
from repro.obs.metrics import record as count
from repro.xpath.fingerprint import query_fingerprint

__all__ = ["QueryRecord", "RecordFanout", "record_metrics", "WARM_STAGES"]

#: The stages a plan-cache hit runs (every request parses, to find its
#: shape); a warm report's compile stages belong to the request that
#: built the cache entry.
WARM_STAGES = ("parse", "evaluate", "project")


class QueryRecord(NamedTuple):
    """Everything recorded about one finished query (immutable).

    ``query`` is the view query as given, ``fingerprint`` its
    constant-masked shape, ``rewritten`` the optimized document
    query with the query's constants bound (a
    :class:`~repro.xpath.fingerprint.BoundQuery`, substituted and
    rendered only by consumers that need the text).  ``error_code``
    is ``""`` on success.  ``stages`` maps the
    stages this request ran to seconds; ``engine_seconds`` is the
    engine's query span (0.0 without a report), ``latency_seconds``
    the request's wall time (served: from arrival, admission wait
    included).  ``slow`` marks an answer
    over its ``slow_query_threshold`` or, served, over the SLO
    threshold; ``profile`` is then its rendered profile or report
    summary.  ``span`` is a traced served request's closed root
    span."""

    trace_id: str = ""
    request_id: str = ""
    tenant: str = ""
    policy: str = ""
    document: str = ""
    query: str = ""
    fingerprint: object = None
    rewritten: object = ""
    cache_hit: bool = False
    result_count: int = 0
    visits: int = 0
    error_code: str = ""
    error_message: str = ""
    denied_label: str = ""
    stages: Dict[str, float] = {}
    engine_seconds: float = 0.0
    latency_seconds: float = 0.0
    slow: bool = False
    canary_violations: int = 0
    profile: Optional[str] = None
    span: object = None
    served: bool = False
    timestamp: float = 0.0

    @classmethod
    def finished(
        cls,
        policy: str,
        query,
        report=None,
        error: Optional[BaseException] = None,
        slow_query_threshold: Optional[float] = None,
        slo_breach: bool = False,
        **fields,
    ) -> "QueryRecord":
        """The record of one finished query, from the engine's
        :class:`~repro.core.engine.QueryReport` or the ``error`` it
        failed with; ``fields`` carries what the finishing caller
        measured (ids, seconds, canary violations, span)."""
        fields.setdefault("timestamp", time())
        text = query if isinstance(query, str) else str(query)
        if report is None:
            return cls(
                policy=policy,
                query=text,
                fingerprint=query_fingerprint(text),
                error_code=error_code(error),
                error_message=str(error),
                denied_label=getattr(error, "label", ""),
                **fields,
            )
        engine_seconds = report.total_time()
        slow = slo_breach or (
            slow_query_threshold is not None
            and engine_seconds >= slow_query_threshold
        )
        profile = None
        if slow:
            profile = (
                report.profile.render()
                if report.profile is not None
                else report.summary()
            )
        return cls(
            policy=policy,
            query=text,
            fingerprint=report.fingerprint or query_fingerprint(query),
            rewritten=report.optimized_query,
            cache_hit=report.cache_hit,
            result_count=report.result_count,
            visits=report.visits,
            stages={
                stage: seconds
                for stage, seconds in report.timings.items()
                if not report.cache_hit or stage in WARM_STAGES
            },
            engine_seconds=engine_seconds,
            slow=slow,
            profile=profile,
            **fields,
        )

    @property
    def ok(self) -> bool:
        return not self.error_code

    @property
    def denied(self) -> bool:
        """Whether the strict-mode label check rejected the query."""
        return self.error_code == QueryRejectedError.code

    @property
    def status(self) -> str:
        """``ok``, ``slow``, ``canary-violation``, ``error`` or
        ``denied`` (a label denial or an unknown policy)."""
        if self.error_code:
            denial = self.denied or self.error_code == "E_SECURITY"
            return "denied" if denial else "error"
        if self.canary_violations:
            return "canary-violation"
        return "slow" if self.slow else "ok"


class RecordFanout:
    """Hands each record to an ordered list of consumers, once each.
    A consumer that raises is counted (the ``record.failures``
    counter) and the next one still runs.  Subscribing is
    copy-on-write, safe while other threads publish."""

    __slots__ = ("_consumers",)

    def __init__(self, consumers: Iterable[Callable] = ()):
        self._consumers = tuple(consumers)

    def subscribe(self, consumer: Callable) -> Callable:
        self._consumers = self._consumers + (consumer,)
        return consumer

    def publish(
        self, record: QueryRecord, extra: Iterable[Callable] = ()
    ) -> None:
        """Hand ``record`` to every consumer, then to ``extra`` (the
        serving layer's SLO tracker and flight recorder)."""
        for consumer in chain(self._consumers, extra):
            try:
                consumer(record)
            except Exception:
                count("record.failures")


def record_metrics(record: QueryRecord) -> None:
    """The metrics-registry consumer (free unless metrics are on):
    ``serving.*`` latency and error series for served requests,
    ``query.denials``, and the ``query.*`` / ``stage.*_seconds``
    series of answered queries."""
    if not metrics_enabled():
        return
    registry = metrics_registry()
    if record.served:
        registry.observe(
            "serving.latency_seconds",
            record.latency_seconds,
            {"tenant": record.tenant},
            buckets=LATENCY_BUCKETS,
        )
        if record.error_code:
            registry.increment("serving.errors")
            registry.increment("serving.errors.%s" % record.error_code)
    if record.denied:
        registry.increment("query.denials")
    if record.error_code:
        return
    registry.increment("query.count")
    registry.observe("query.total_seconds", record.engine_seconds)
    registry.observe("query.result_count", record.result_count)
    registry.observe("query.visits", record.visits)
    for stage, seconds in record.stages.items():
        registry.observe("stage.%s_seconds" % stage, seconds)
