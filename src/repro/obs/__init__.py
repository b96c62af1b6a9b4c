"""repro.obs — observability for the secure-query engine.

Zero-dependency layers, all off or near-free by default:

* :mod:`repro.obs.trace` — nested :class:`Span` context managers with
  wall times and attributes; the engine derives ``QueryReport.timings``
  (and the end-to-end ``total_seconds``) from these;
* :mod:`repro.obs.metrics` — a process-wide :class:`MetricsRegistry`
  of counters and histograms (plan-cache traffic, NodeTable builds,
  stage latencies, result cardinalities), gated by a module-level
  enabled flag (:func:`enable_metrics` / :func:`disable_metrics`);
* :mod:`repro.obs.profile` — per-operator execution stats collected
  when a query runs with ``ExecutionOptions(trace=True)``, exposed as
  an EXPLAIN ANALYZE-style :class:`ExplainProfile` tree on
  ``QueryResult.report.profile``;
* :mod:`repro.obs.events` — typed audit events (query, denial,
  policy, error, canary) emitted from the serving path into bounded
  non-blocking sinks (:class:`RingBufferSink`, :class:`JsonlFileSink`,
  :class:`CallbackSink`) via an :class:`EventPipeline` that can never
  fail a query;
* :mod:`repro.obs.audit` — :class:`AuditLog`, the query API over an
  event trail (filters, tail, per-policy denial/latency accounting);
* :mod:`repro.obs.export` — :func:`prometheus_text`, the Prometheus
  text-exposition rendering of the metrics registry;
* :mod:`repro.obs.canary` — :class:`SecurityCanary`, the sampled
  production re-check of served answers against the
  materialized-view oracle;
* :mod:`repro.obs.flight` — :class:`FlightRecorder`, bounded
  tail-biased retention of finished request traces (errors, denials,
  SLO-slow, canary violations always kept; OK traffic
  reservoir-sampled), behind ``GET /debug/traces`` and ``repro trace
  tail``;
* :mod:`repro.obs.slo` — :class:`SLOTracker`, per-tenant latency
  SLOs with fast/slow burn-rate windows, behind ``GET /debug/slo``;
* :mod:`repro.obs.workload` — :class:`WorkloadProfiler`, bounded
  per-tenant heavy hitters over canonical query fingerprints
  (:mod:`repro.xpath.fingerprint`), behind ``GET /debug/workload``
  and ``repro workload top``;
* :mod:`repro.obs.introspect` — cache/memory byte accounting for the
  engine's plan cache, NodeTables, and materialized view trees,
  behind ``engine.introspect()`` and ``GET /debug/cachez``.

See ``docs/observability.md`` and ``docs/audit.md`` for usage and
overhead guidance.
"""

from repro.obs.metrics import (
    LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    disable_metrics,
    enable_metrics,
    metrics_enabled,
    metrics_registry,
    observe,
    record,
    series_name,
    set_gauge,
    split_series,
)
from repro.obs.profile import (
    ExplainProfile,
    OperatorStats,
    ProfileCollector,
    ProfileNode,
)
from repro.obs.trace import (
    NULL_SPAN,
    Span,
    TraceContext,
    Tracer,
    new_span_id,
    new_trace_id,
)
from repro.obs.flight import FlightRecorder, TraceRecord, render_trace
from repro.obs.slo import BurnWindow, SLObjective, SLOTracker
from repro.obs.events import (
    CallbackSink,
    CanaryEvent,
    DegradationEvent,
    DenialEvent,
    ErrorEvent,
    Event,
    EventPipeline,
    EventSink,
    JsonlFileSink,
    PolicyEvent,
    QueryEvent,
    RingBufferSink,
    event_from_dict,
    parse_jsonl,
    read_jsonl,
)
from repro.obs.audit import AuditLog, percentile
from repro.obs.export import (
    prometheus_text,
    publish_cache_report,
    publish_workload,
    sanitize_metric_name,
)
from repro.obs.canary import SecurityCanary
from repro.obs.workload import WorkloadEntry, WorkloadProfiler
from repro.obs.introspect import engine_report, plan_cache_report

__all__ = [
    # tracing
    "Span",
    "Tracer",
    "NULL_SPAN",
    "TraceContext",
    "new_trace_id",
    "new_span_id",
    # flight recorder
    "FlightRecorder",
    "TraceRecord",
    "render_trace",
    # SLOs
    "SLObjective",
    "SLOTracker",
    "BurnWindow",
    # metrics
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "LATENCY_BUCKETS",
    "metrics_registry",
    "enable_metrics",
    "disable_metrics",
    "metrics_enabled",
    "record",
    "observe",
    "set_gauge",
    "series_name",
    "split_series",
    # profiling
    "OperatorStats",
    "ProfileCollector",
    "ProfileNode",
    "ExplainProfile",
    # events
    "Event",
    "QueryEvent",
    "DenialEvent",
    "PolicyEvent",
    "ErrorEvent",
    "CanaryEvent",
    "DegradationEvent",
    "event_from_dict",
    "parse_jsonl",
    "read_jsonl",
    "EventSink",
    "RingBufferSink",
    "JsonlFileSink",
    "CallbackSink",
    "EventPipeline",
    # audit
    "AuditLog",
    "percentile",
    # export
    "prometheus_text",
    "sanitize_metric_name",
    "publish_workload",
    "publish_cache_report",
    # canary
    "SecurityCanary",
    # workload intelligence
    "WorkloadProfiler",
    "WorkloadEntry",
    # cache introspection
    "engine_report",
    "plan_cache_report",
]
