"""Process-wide metrics: named counters, gauges, and histograms.

One :class:`MetricsRegistry` (the module-level default returned by
:func:`metrics_registry`) aggregates engine activity across queries:
plan-cache hits/misses/evictions/invalidations, NodeTable builds,
per-stage latencies, result cardinalities.
``snapshot()`` returns a plain-dict point-in-time copy (JSON-safe, for
benchmark harnesses and dashboards); ``reset()`` zeroes everything.

Every metric type takes an optional frozen **label dict** — the
dimensional form the serving layer uses for per-tenant series
(``serving.latency_seconds`` with ``{"tenant": "nurse"}``) instead of
interpolating the tenant into the metric name.  In snapshots a labeled
series renders as a Prometheus-style key
(``serving.latency_seconds{tenant="nurse"}``), which
:mod:`repro.obs.export` splits back into name + labels.

Histograms are streaming summaries (count/sum/min/max); created with
``buckets`` (e.g. :data:`LATENCY_BUCKETS`) they also count into fixed
log buckets, exported as Prometheus ``_bucket`` lines, and
:meth:`Histogram.quantile` interpolates inside them.  Exact
percentiles of a finite sample use :func:`percentile` (nearest-rank).
:class:`Gauge` carries point-in-time values that may go down again.

Recording is **off by default** and guarded by a module-level flag so
instrumentation left on hot paths costs one function call with a
boolean check when disabled:

    from repro.obs import enable_metrics, metrics_registry
    enable_metrics()
    ... run traffic ...
    metrics_registry().snapshot()

Instrumented call sites use the guarded helpers :func:`record` /
:func:`observe` / :func:`set_gauge`; direct metric handles (via
``registry.counter(name)``) are unconditional and are meant for tests
and tools that own their registry.
"""

from __future__ import annotations

from bisect import bisect_left
from math import ceil
from threading import Lock
from typing import Dict, List, Optional, Tuple

__all__ = [
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
    "percentile",
]

#: Module-level master switch for the guarded helpers below.
_ENABLED = False

#: Fixed log buckets for latency histograms (seconds): a 1-2.5-5
#: ladder from 0.5 ms to 10 s.  Shared by every ``*_seconds`` series
#: the serving layer records, so per-tenant percentiles are computed
#: over identical bucket bounds.
LATENCY_BUCKETS: Tuple[float, ...] = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)


def enable_metrics() -> None:
    """Turn on recording into the process-wide registry."""
    global _ENABLED
    _ENABLED = True


def disable_metrics() -> None:
    """Turn recording off (the default); the registry keeps its data."""
    global _ENABLED
    _ENABLED = False


def metrics_enabled() -> bool:
    return _ENABLED


def percentile(values, q: float) -> float:
    """Exact nearest-rank ``q``-quantile (``q`` in [0, 1]): the
    smallest value with at least ``q`` of ``values`` at or below it;
    0.0 for none.  Bucketed streams use :meth:`Histogram.quantile`."""
    if not values:
        return 0.0
    ordered = sorted(values)
    # rounding first keeps float noise (0.07 * 100 = 7.000000000000001)
    # from pushing an exact rank up by one
    rank = ceil(round(q * len(ordered), 9))
    return ordered[min(max(rank, 1), len(ordered)) - 1]


def _label_key(labels: Optional[Dict[str, str]]) -> tuple:
    """The hashable, order-insensitive registry key of a label dict."""
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def series_name(name: str, labels: Optional[Dict[str, str]] = None) -> str:
    """The snapshot key of one series: the bare name, or
    ``name{a="x",b="y"}`` with labels sorted by key."""
    if not labels:
        return name
    body = ",".join(
        '%s="%s"' % (key, value)
        for key, value in sorted((str(k), str(v)) for k, v in labels.items())
    )
    return "%s{%s}" % (name, body)


def split_series(series: str) -> Tuple[str, str]:
    """Inverse-ish of :func:`series_name`: ``(name, label_body)``
    where ``label_body`` is the already-rendered ``a="x",b="y"`` part
    (empty for unlabeled series)."""
    if "{" not in series:
        return series, ""
    name, _, rest = series.partition("{")
    return name, rest.rstrip("}")


class Counter:
    """A monotonically increasing named integer (optionally labeled).

    ``+=`` on a Python int is read-modify-write, so concurrent
    increments from server worker threads would drop updates without
    the per-counter lock."""

    __slots__ = ("name", "labels", "value", "_lock")

    def __init__(self, name: str, labels: Optional[Dict[str, str]] = None):
        self.name = name
        self.labels: Dict[str, str] = dict(labels) if labels else {}
        self.value = 0
        self._lock = Lock()

    def inc(self, amount: int = 1) -> None:
        with self._lock:
            self.value += amount

    def __repr__(self):
        return "Counter(%r, %d)" % (series_name(self.name, self.labels), self.value)


class Gauge:
    """A point-in-time value that may go up or down (queue depth, burn
    rate).  ``set`` replaces the value; ``inc``/``dec`` adjust it."""

    __slots__ = ("name", "labels", "value", "_lock")

    def __init__(self, name: str, labels: Optional[Dict[str, str]] = None):
        self.name = name
        self.labels: Dict[str, str] = dict(labels) if labels else {}
        self.value: float = 0.0
        self._lock = Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self.value = value

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self.value -= amount

    def __repr__(self):
        return "Gauge(%r, %g)" % (series_name(self.name, self.labels), self.value)


class Histogram:
    """Streaming summary of observed values — count, sum, min, max —
    plus, when constructed with ``buckets`` (sorted upper bounds),
    fixed-bucket counts for real percentile estimation and Prometheus
    ``_bucket`` export.  Values above the last bound only land in the
    implicit ``+Inf`` bucket (= ``count``)."""

    __slots__ = (
        "name",
        "labels",
        "buckets",
        "count",
        "total",
        "minimum",
        "maximum",
        "_bucket_counts",
        "_lock",
    )

    def __init__(
        self,
        name: str,
        labels: Optional[Dict[str, str]] = None,
        buckets: Optional[Tuple[float, ...]] = None,
    ):
        self.name = name
        self.labels: Dict[str, str] = dict(labels) if labels else {}
        self.buckets: Optional[Tuple[float, ...]] = (
            tuple(buckets) if buckets else None
        )
        self.count = 0
        self.total = 0.0
        self.minimum: Optional[float] = None
        self.maximum: Optional[float] = None
        self._bucket_counts: Optional[List[int]] = (
            [0] * len(self.buckets) if self.buckets else None
        )
        self._lock = Lock()

    def observe(self, value: float) -> None:
        with self._lock:
            self.count += 1
            self.total += value
            if self.minimum is None or value < self.minimum:
                self.minimum = value
            if self.maximum is None or value > self.maximum:
                self.maximum = value
            if self._bucket_counts is not None:
                index = bisect_left(self.buckets, value)
                if index < len(self._bucket_counts):
                    self._bucket_counts[index] += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def cumulative_buckets(self) -> List[Tuple[float, int]]:
        """``(upper_bound, cumulative_count)`` pairs, Prometheus
        ``le`` semantics (the implicit ``+Inf`` bucket is ``count``)."""
        if self._bucket_counts is None:
            return []
        with self._lock:
            counts = list(self._bucket_counts)
        out = []
        running = 0
        for bound, bucket_count in zip(self.buckets, counts):
            running += bucket_count
            out.append((bound, running))
        return out

    def quantile(self, q: float) -> float:
        """Quantile estimate (``q`` in [0, 1]) as Prometheus
        ``histogram_quantile`` computes it: linear inside the bucket
        holding rank ``q * count``, clamped to the observed
        ``[min, max]`` (the max beyond the last bound)."""
        if self.count == 0:
            return 0.0
        if self._bucket_counts is None:
            return (self.maximum if q >= 0.5 else self.minimum) or 0.0
        rank = q * self.count
        lower, below = 0.0, 0
        for upper, cumulative in self.cumulative_buckets():
            if cumulative >= rank and cumulative > below:
                estimate = lower + (upper - lower) * (
                    (rank - below) / (cumulative - below)
                )
                return min(max(estimate, self.minimum), self.maximum)
            lower, below = upper, cumulative
        return self.maximum

    def as_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "count": self.count,
            "sum": self.total,
            "mean": self.mean,
            "min": self.minimum if self.minimum is not None else 0.0,
            "max": self.maximum if self.maximum is not None else 0.0,
        }
        if self._bucket_counts is not None:
            out["buckets"] = [
                [bound, cumulative]
                for bound, cumulative in self.cumulative_buckets()
            ]
        return out

    def __repr__(self):
        return "Histogram(%r, count=%d, mean=%.6g)" % (
            series_name(self.name, self.labels),
            self.count,
            self.mean,
        )


class MetricsRegistry:
    """Named (optionally labeled) counters, gauges, and histograms,
    created on first use.

    Structure mutation (creating a new metric) is lock-protected, and
    each metric carries its own lock for increments/observations, so
    the registry is safe to share across server worker threads."""

    def __init__(self):
        self._counters: Dict[tuple, Counter] = {}
        self._gauges: Dict[tuple, Gauge] = {}
        self._histograms: Dict[tuple, Histogram] = {}
        self._lock = Lock()

    # -- handles -------------------------------------------------------

    def counter(
        self, name: str, labels: Optional[Dict[str, str]] = None
    ) -> Counter:
        key = (name, _label_key(labels))
        counter = self._counters.get(key)
        if counter is None:
            with self._lock:
                counter = self._counters.setdefault(key, Counter(name, labels))
        return counter

    def gauge(self, name: str, labels: Optional[Dict[str, str]] = None) -> Gauge:
        key = (name, _label_key(labels))
        gauge = self._gauges.get(key)
        if gauge is None:
            with self._lock:
                gauge = self._gauges.setdefault(key, Gauge(name, labels))
        return gauge

    def histogram(
        self,
        name: str,
        labels: Optional[Dict[str, str]] = None,
        buckets: Optional[Tuple[float, ...]] = None,
    ) -> Histogram:
        """Get-or-create; ``buckets`` only takes effect on the call
        that creates the series (all later callers share it)."""
        key = (name, _label_key(labels))
        histogram = self._histograms.get(key)
        if histogram is None:
            with self._lock:
                histogram = self._histograms.setdefault(
                    key, Histogram(name, labels, buckets=buckets)
                )
        return histogram

    # -- recording (unconditional; see module helpers for guarded) -----

    def increment(
        self,
        name: str,
        amount: int = 1,
        labels: Optional[Dict[str, str]] = None,
    ) -> None:
        self.counter(name, labels).inc(amount)

    def observe(
        self,
        name: str,
        value: float,
        labels: Optional[Dict[str, str]] = None,
        buckets: Optional[Tuple[float, ...]] = None,
    ) -> None:
        self.histogram(name, labels, buckets=buckets).observe(value)

    def set_gauge(
        self,
        name: str,
        value: float,
        labels: Optional[Dict[str, str]] = None,
    ) -> None:
        self.gauge(name, labels).set(value)

    # -- snapshot / reset ----------------------------------------------

    def snapshot(self) -> dict:
        """A JSON-safe point-in-time copy of every metric.  Labeled
        series key as ``name{label="value"}`` (see
        :func:`series_name`); unlabeled keys are the bare name, so
        pre-label consumers keep working unchanged."""
        with self._lock:  # vs concurrent first-use series creation
            counters = list(self._counters.values())
            gauges = list(self._gauges.values())
            histograms = list(self._histograms.values())
        return {
            "counters": {
                series_name(counter.name, counter.labels): counter.value
                for counter in sorted(
                    counters, key=lambda c: series_name(c.name, c.labels)
                )
            },
            "gauges": {
                series_name(gauge.name, gauge.labels): gauge.value
                for gauge in sorted(
                    gauges, key=lambda g: series_name(g.name, g.labels)
                )
            },
            "histograms": {
                series_name(histogram.name, histogram.labels): histogram.as_dict()
                for histogram in sorted(
                    histograms, key=lambda h: series_name(h.name, h.labels)
                )
            },
        }

    def reset(self) -> None:
        """Zero every metric (handles stay valid)."""
        with self._lock:
            for counter in self._counters.values():
                counter.value = 0
            for gauge in self._gauges.values():
                gauge.value = 0.0
            for histogram in self._histograms.values():
                histogram.count = 0
                histogram.total = 0.0
                histogram.minimum = None
                histogram.maximum = None
                if histogram._bucket_counts is not None:
                    histogram._bucket_counts = [0] * len(histogram.buckets)

    def __repr__(self):
        return "MetricsRegistry(counters=%d, gauges=%d, histograms=%d)" % (
            len(self._counters),
            len(self._gauges),
            len(self._histograms),
        )


#: The process-wide default registry.
_REGISTRY = MetricsRegistry()


def metrics_registry() -> MetricsRegistry:
    """The process-wide registry the engine records into."""
    return _REGISTRY


def record(
    name: str, amount: int = 1, labels: Optional[Dict[str, str]] = None
) -> None:
    """Guarded counter increment: a no-op unless metrics are enabled."""
    if _ENABLED:
        _REGISTRY.increment(name, amount, labels)


def observe(
    name: str,
    value: float,
    labels: Optional[Dict[str, str]] = None,
    buckets: Optional[Tuple[float, ...]] = None,
) -> None:
    """Guarded histogram observation: a no-op unless metrics are enabled."""
    if _ENABLED:
        _REGISTRY.observe(name, value, labels, buckets=buckets)


def set_gauge(
    name: str, value: float, labels: Optional[Dict[str, str]] = None
) -> None:
    """Guarded gauge set: a no-op unless metrics are enabled."""
    if _ENABLED:
        _REGISTRY.set_gauge(name, value, labels)
