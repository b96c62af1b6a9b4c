"""Prometheus text-exposition export of the metrics registry.

:func:`prometheus_text` renders a
:class:`~repro.obs.metrics.MetricsRegistry` (or a ``snapshot()``
dict of one) in the Prometheus text exposition format (version
0.0.4), so an HTTP handler — or ``repro metrics --format
prometheus`` — can serve a scrape endpoint without any client
library:

* every counter becomes ``<prefix>_<name>_total`` with
  ``# TYPE ... counter``;
* every gauge becomes ``<prefix>_<name>`` with ``# TYPE ... gauge``;
* a histogram **with buckets** becomes a real ``# TYPE ... histogram``
  family: cumulative ``_bucket{le="..."}`` lines (including
  ``le="+Inf"``) plus ``_sum`` / ``_count``, the shape PromQL's
  ``histogram_quantile`` needs for p95/p99;
* a bucketless histogram stays the historical ``summary`` pair
  (``_count`` / ``_sum``) plus ``_min`` / ``_max`` gauges.

Labeled series (snapshot keys like ``name{tenant="nurse"}``, see
:func:`repro.obs.metrics.series_name`) render with their label set on
every sample line; the family's ``# TYPE`` header is emitted once.

Metric names are sanitized to the Prometheus grammar
(``[a-zA-Z_:][a-zA-Z0-9_:]*``); the dots of registry names map to
underscores (``plan_cache.hits`` -> ``repro_plan_cache_hits_total``).

Back-compat shim: before labels existed, the serving layer
interpolated the tenant into the metric *name*
(``serving.latency_seconds.<tenant>``).  For the series in
:data:`LEGACY_TENANT_SERIES` the exporter also emits those old
flattened summary names alongside the labeled form, so dashboards
scraping ``repro_serving_latency_seconds_nurse_count`` keep working
during migration.
"""

from __future__ import annotations

import re

from repro.obs.metrics import metrics_registry, split_series

__all__ = [
    "prometheus_text",
    "sanitize_metric_name",
    "publish_workload",
    "publish_cache_report",
    "LEGACY_TENANT_SERIES",
]

_INVALID_CHARACTERS = re.compile(r"[^a-zA-Z0-9_:]")
_INVALID_START = re.compile(r"^[^a-zA-Z_:]")
_TENANT_LABEL = re.compile(r'(?:^|,)tenant="([^"]*)"')

#: Labeled histogram series that also export their pre-label
#: tenant-in-the-name summary form (see the module docstring).
LEGACY_TENANT_SERIES = ("serving.latency_seconds",)


def sanitize_metric_name(name: str) -> str:
    """Map an arbitrary registry metric name onto the Prometheus
    metric-name grammar."""
    sanitized = _INVALID_CHARACTERS.sub("_", name)
    if _INVALID_START.match(sanitized):
        sanitized = "_" + sanitized
    return sanitized


def _format_value(value) -> str:
    """Prometheus sample formatting: integers stay integral, floats
    use repr (full precision)."""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def _sample(metric: str, labels: str, value) -> str:
    """One sample line: ``metric{labels} value`` (labels may be '')."""
    if labels:
        return "%s{%s} %s" % (metric, labels, _format_value(value))
    return "%s %s" % (metric, _format_value(value))


def _merge_labels(labels: str, extra: str) -> str:
    return "%s,%s" % (labels, extra) if labels else extra


def _summary_lines(lines, metric, labels, histogram, typed) -> None:
    """The historical summary rendering of one (possibly labeled)
    histogram series; ``typed`` tracks emitted ``# TYPE`` headers."""
    if metric not in typed:
        typed.add(metric)
        lines.append("# TYPE %s summary" % metric)
    lines.append(_sample(metric + "_count", labels, histogram["count"]))
    lines.append(_sample(metric + "_sum", labels, histogram["sum"]))
    if metric + "_min" not in typed:
        typed.add(metric + "_min")
        lines.append("# TYPE %s_min gauge" % metric)
    lines.append(_sample(metric + "_min", labels, histogram["min"]))
    if metric + "_max" not in typed:
        typed.add(metric + "_max")
        lines.append("# TYPE %s_max gauge" % metric)
    lines.append(_sample(metric + "_max", labels, histogram["max"]))


def prometheus_text(snapshot, prefix: str = "repro") -> str:
    """The Prometheus text-exposition rendering of a metrics snapshot.

    ``snapshot`` is either a :class:`~repro.obs.metrics.MetricsRegistry`
    or the plain dict its ``snapshot()`` returns.  Output is sorted and
    deterministic, and ends with a newline as the format requires.
    """
    if hasattr(snapshot, "snapshot"):
        snapshot = snapshot.snapshot()
    lines = []
    typed = set()
    for series, value in sorted(snapshot.get("counters", {}).items()):
        name, labels = split_series(series)
        metric = "%s_%s_total" % (prefix, sanitize_metric_name(name))
        if metric not in typed:
            typed.add(metric)
            lines.append("# TYPE %s counter" % metric)
        lines.append(_sample(metric, labels, value))
    for series, value in sorted(snapshot.get("gauges", {}).items()):
        name, labels = split_series(series)
        metric = "%s_%s" % (prefix, sanitize_metric_name(name))
        if metric not in typed:
            typed.add(metric)
            lines.append("# TYPE %s gauge" % metric)
        lines.append(_sample(metric, labels, value))
    for series, histogram in sorted(snapshot.get("histograms", {}).items()):
        name, labels = split_series(series)
        metric = "%s_%s" % (prefix, sanitize_metric_name(name))
        buckets = histogram.get("buckets")
        if buckets:
            if metric not in typed:
                typed.add(metric)
                lines.append("# TYPE %s histogram" % metric)
            for bound, cumulative in buckets:
                lines.append(
                    _sample(
                        metric + "_bucket",
                        _merge_labels(labels, 'le="%s"' % _format_value(bound)),
                        cumulative,
                    )
                )
            lines.append(
                _sample(
                    metric + "_bucket",
                    _merge_labels(labels, 'le="+Inf"'),
                    histogram["count"],
                )
            )
            lines.append(_sample(metric + "_sum", labels, histogram["sum"]))
            lines.append(_sample(metric + "_count", labels, histogram["count"]))
        else:
            _summary_lines(lines, metric, labels, histogram, typed)
        if name in LEGACY_TENANT_SERIES:
            tenant = _TENANT_LABEL.search(labels)
            if tenant is not None:
                legacy = "%s_%s" % (
                    prefix,
                    sanitize_metric_name("%s.%s" % (name, tenant.group(1))),
                )
                _summary_lines(lines, legacy, "", histogram, typed)
    return "\n".join(lines) + "\n" if lines else ""


def publish_workload(profiler, registry=None) -> None:
    """Fold a :class:`~repro.obs.workload.WorkloadProfiler`'s roll-up
    totals into ``registry`` (the process-wide one by default) as
    ``workload.*`` gauges, labeled per tenant.  Only the bounded
    per-tenant totals are exported — per-fingerprint series would blow
    the scrape's cardinality; the full top-K detail lives behind
    ``GET /debug/workload``."""
    if profiler is None:
        return
    if registry is None:
        registry = metrics_registry()
    report = profiler.report(n=0)
    for tenant, totals in report["tenants"].items():
        labels = {"tenant": tenant}
        registry.set_gauge("workload.queries", totals["queries"], labels)
        registry.set_gauge("workload.errors", totals["errors"], labels)
        registry.set_gauge("workload.denials", totals["denials"], labels)
        registry.set_gauge(
            "workload.fingerprints", totals["fingerprints"], labels
        )
        registry.set_gauge(
            "workload.heavy_hitter_evictions", totals["evictions"], labels
        )
    registry.set_gauge("workload.capacity", report["capacity"])


def publish_cache_report(report, registry=None) -> None:
    """Fold an :func:`~repro.obs.introspect.engine_report` dict into
    ``registry`` as ``cache.*`` gauges labeled by cache name (byte
    estimates, entry counts, and — where the cache tracks them — hit
    ratios and evictions)."""
    if not report:
        return
    if registry is None:
        registry = metrics_registry()
    for cache, section in report.items():
        if not isinstance(section, dict):
            continue
        labels = {"cache": cache}
        if "bytes" in section:
            registry.set_gauge("cache.bytes", section["bytes"], labels)
        if "entries" in section:
            registry.set_gauge("cache.entries", section["entries"], labels)
        if "hit_rate" in section:
            registry.set_gauge("cache.hit_ratio", section["hit_rate"], labels)
        if "evictions" in section:
            registry.set_gauge(
                "cache.evictions", section["evictions"], labels
            )
    if "total_bytes" in report:
        registry.set_gauge("cache.total_bytes", report["total_bytes"])
