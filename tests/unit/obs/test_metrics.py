"""Unit tests for the metrics registry (repro.obs.metrics)."""

import pytest

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


@pytest.fixture(autouse=True)
def clean_global_state():
    disable_metrics()
    metrics_registry().reset()
    yield
    disable_metrics()
    metrics_registry().reset()


class TestCounter:
    def test_increments(self):
        counter = Counter("c")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5


class TestHistogram:
    def test_streaming_summary(self):
        histogram = Histogram("h")
        for value in (3.0, 1.0, 2.0):
            histogram.observe(value)
        assert histogram.count == 3
        assert histogram.total == 6.0
        assert histogram.mean == 2.0
        assert histogram.minimum == 1.0
        assert histogram.maximum == 3.0

    def test_empty_dict_form(self):
        assert Histogram("h").as_dict() == {
            "count": 0,
            "sum": 0.0,
            "mean": 0.0,
            "min": 0.0,
            "max": 0.0,
        }


class TestGauge:
    def test_set_inc_dec(self):
        gauge = Gauge("g")
        gauge.set(4.0)
        gauge.inc()
        gauge.dec(2.0)
        assert gauge.value == 3.0


class TestSeriesNames:
    def test_unlabeled_series_name_is_the_name(self):
        assert series_name("a.b") == "a.b"
        assert series_name("a.b", {}) == "a.b"

    def test_labels_render_sorted(self):
        rendered = series_name("lat", {"tenant": "nurse", "doc": "h"})
        assert rendered == 'lat{doc="h",tenant="nurse"}'

    def test_split_series_roundtrip(self):
        rendered = series_name("lat", {"tenant": "nurse"})
        assert split_series(rendered) == ("lat", 'tenant="nurse"')
        assert split_series("plain") == ("plain", "")


class TestBucketedHistogram:
    def test_cumulative_buckets(self):
        histogram = Histogram("h", buckets=(0.1, 1.0, 10.0))
        for value in (0.05, 0.5, 0.5, 5.0, 50.0):
            histogram.observe(value)
        assert histogram.cumulative_buckets() == [
            (0.1, 1),
            (1.0, 3),
            (10.0, 4),
        ]
        # the 50.0 observation lives only in the implicit +Inf bucket
        assert histogram.count == 5

    def test_bucketless_histogram_dict_has_no_buckets_key(self):
        histogram = Histogram("h")
        histogram.observe(1.0)
        assert "buckets" not in histogram.as_dict()

    def test_bucketed_histogram_dict_carries_buckets(self):
        histogram = Histogram("h", buckets=(1.0, 2.0))
        histogram.observe(1.5)
        assert histogram.as_dict()["buckets"] == [[1.0, 0], [2.0, 1]]

    def test_quantile_estimate_lands_in_the_right_bucket(self):
        histogram = Histogram("h", buckets=LATENCY_BUCKETS)
        for _ in range(99):
            histogram.observe(0.002)
        histogram.observe(9.0)
        assert histogram.quantile(0.5) <= 0.0025
        assert histogram.quantile(0.999) > 5.0

    def test_quantile_interpolates_inside_the_bucket(self):
        """Like Prometheus histogram_quantile: linear inside the bucket
        holding the rank, clamped to the observed range — never the
        bucket's upper edge above every observation."""
        histogram = Histogram("h", buckets=LATENCY_BUCKETS)
        for index in range(100):
            histogram.observe(0.0012 + 0.0006 * index / 99)
        for q in (0.50, 0.95):
            assert 0.0012 <= histogram.quantile(q) <= 0.0018
        assert histogram.quantile(0.0) == 0.0012
        assert histogram.quantile(1.0) == 0.0018


class TestLabeledRegistry:
    def test_labels_create_distinct_series(self):
        registry = MetricsRegistry()
        registry.increment("req", labels={"tenant": "a"})
        registry.increment("req", 2, labels={"tenant": "b"})
        registry.increment("req")
        counters = registry.snapshot()["counters"]
        assert counters["req"] == 1
        assert counters['req{tenant="a"}'] == 1
        assert counters['req{tenant="b"}'] == 2

    def test_labeled_handles_are_get_or_create(self):
        registry = MetricsRegistry()
        labels = {"tenant": "a"}
        assert registry.counter("c", labels) is registry.counter("c", labels)
        assert registry.histogram("h", labels) is registry.histogram(
            "h", labels
        )
        assert registry.gauge("g", labels) is registry.gauge("g", labels)

    def test_gauge_section_in_snapshot(self):
        registry = MetricsRegistry()
        registry.set_gauge("depth", 7, labels={"tenant": "a"})
        registry.set_gauge("depth", 3)
        gauges = registry.snapshot()["gauges"]
        assert gauges == {"depth": 3, 'depth{tenant="a"}': 7}

    def test_observe_with_buckets_renders_in_snapshot(self):
        registry = MetricsRegistry()
        registry.observe(
            "lat", 0.3, labels={"tenant": "a"}, buckets=(0.25, 0.5)
        )
        entry = registry.snapshot()["histograms"]['lat{tenant="a"}']
        assert entry["count"] == 1
        assert entry["buckets"] == [[0.25, 0], [0.5, 1]]

    def test_reset_zeroes_gauges_and_buckets(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("g")
        gauge.set(5.0)
        histogram = registry.histogram("h", buckets=(1.0,))
        histogram.observe(0.5)
        registry.reset()
        assert gauge.value == 0.0
        assert histogram.as_dict()["buckets"] == [[1.0, 0]]


class TestGuardedGauge:
    def test_set_gauge_respects_enable_flag(self):
        set_gauge("dropped", 9)
        assert "dropped" not in metrics_registry().snapshot().get("gauges", {})
        enable_metrics()
        set_gauge("kept", 4)
        assert metrics_registry().snapshot()["gauges"]["kept"] == 4


class TestMetricsRegistry:
    def test_handles_are_get_or_create(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.histogram("b") is registry.histogram("b")

    def test_snapshot_is_json_safe_and_sorted(self):
        import json

        registry = MetricsRegistry()
        registry.increment("z")
        registry.increment("a", 2)
        registry.observe("lat", 0.5)
        snap = registry.snapshot()
        assert list(snap["counters"]) == ["a", "z"]
        assert snap["counters"] == {"a": 2, "z": 1}
        assert snap["histograms"]["lat"]["count"] == 1
        json.dumps(snap)  # must not raise

    def test_reset_keeps_handles_valid(self):
        registry = MetricsRegistry()
        counter = registry.counter("c")
        counter.inc(7)
        histogram = registry.histogram("h")
        histogram.observe(1.0)
        registry.reset()
        assert counter.value == 0
        assert histogram.count == 0
        counter.inc()
        assert registry.snapshot()["counters"]["c"] == 1


class TestGuardedHelpers:
    def test_disabled_by_default(self):
        assert not metrics_enabled()
        record("ignored")
        observe("ignored.too", 1.0)
        snap = metrics_registry().snapshot()
        assert "ignored" not in snap["counters"]
        assert "ignored.too" not in snap["histograms"]

    def test_enable_disable_roundtrip(self):
        enable_metrics()
        assert metrics_enabled()
        record("seen", 3)
        observe("seen.lat", 0.25)
        disable_metrics()
        record("seen")  # dropped again
        snap = metrics_registry().snapshot()
        assert snap["counters"]["seen"] == 3
        assert snap["histograms"]["seen.lat"]["count"] == 1
