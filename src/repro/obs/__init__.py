"""repro.obs — observability for the secure-query engine.

Zero-dependency layers, all off or near-free by default (each module's
docstring has the details):

* :mod:`~repro.obs.trace` — nested timed :class:`Span` trees;
* :mod:`~repro.obs.metrics` — the process-wide :class:`MetricsRegistry`
  (counters, gauges, bucketed histograms) and :func:`percentile`;
* :mod:`~repro.obs.profile` — EXPLAIN ANALYZE operator profiles;
* :mod:`~repro.obs.record` — :class:`QueryRecord`, the one record of a
  finished query, and the :class:`RecordFanout` that hands it to the
  metrics registry, the audit pipeline, the workload profiler, the
  SLO tracker and the flight recorder;
* :mod:`~repro.obs.events` / :mod:`~repro.obs.audit` — typed audit
  events, bounded sinks, and the :class:`AuditLog` query API;
* :mod:`~repro.obs.export` — Prometheus text exposition;
* :mod:`~repro.obs.canary` — the sampled security re-check;
* :mod:`~repro.obs.flight` / :mod:`~repro.obs.slo` — tail-sampled
  traces and per-tenant SLO burn rates;
* :mod:`~repro.obs.workload` / :mod:`~repro.obs.introspect` —
  per-tenant query-shape heavy hitters and cache byte accounting.

See ``docs/observability.md`` and ``docs/audit.md``.
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
    percentile,
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
from repro.obs.record import QueryRecord, RecordFanout, record_metrics
from repro.obs.flight import FlightRecorder, render_trace, trace_dict
from repro.obs.slo import BurnWindow, SLObjective, SLOTracker
from repro.obs.events import (
    CallbackSink,
    audit_event,
    CanaryEvent,
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
from repro.obs.audit import AuditLog
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
    # one record per finished query
    "QueryRecord",
    "RecordFanout",
    "record_metrics",
    # flight recorder
    "FlightRecorder",
    "render_trace",
    "trace_dict",
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
    "percentile",
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
    "audit_event",
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
