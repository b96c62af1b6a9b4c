"""Prometheus text-exposition export of metrics snapshots."""

from repro.obs.export import (
    LEGACY_TENANT_SERIES,
    prometheus_text,
    publish_cache_report,
    publish_workload,
    sanitize_metric_name,
)
from repro.obs.metrics import LATENCY_BUCKETS, MetricsRegistry


class TestSanitize:
    def test_dots_become_underscores(self):
        assert sanitize_metric_name("plan_cache.hits") == "plan_cache_hits"

    def test_valid_names_pass_through(self):
        assert sanitize_metric_name("query_total:rate") == "query_total:rate"

    def test_bad_leading_character(self):
        assert sanitize_metric_name("9lives") == "_9lives"

    def test_arbitrary_junk(self):
        assert sanitize_metric_name("a b-c/d") == "a_b_c_d"


class TestPrometheusText:
    def test_counters(self):
        text = prometheus_text({"counters": {"query.count": 3}})
        assert "# TYPE repro_query_count_total counter\n" in text
        assert "repro_query_count_total 3\n" in text

    def test_histograms_render_as_summary_with_min_max(self):
        registry = MetricsRegistry()
        for value in (1.0, 2.0, 3.0):
            registry.observe("query.latency", value)
        text = prometheus_text(registry.snapshot())
        assert "# TYPE repro_query_latency summary" in text
        assert "repro_query_latency_count 3" in text
        assert "repro_query_latency_sum 6.0" in text
        assert "repro_query_latency_min 1.0" in text
        assert "repro_query_latency_max 3.0" in text

    def test_accepts_registry_directly(self):
        registry = MetricsRegistry()
        registry.increment("a.b")
        assert "repro_a_b_total 1" in prometheus_text(registry)

    def test_custom_prefix(self):
        text = prometheus_text({"counters": {"x": 1}}, prefix="svc")
        assert text.startswith("# TYPE svc_x_total counter")

    def test_empty_snapshot(self):
        assert prometheus_text({}) == ""
        assert prometheus_text({"counters": {}, "histograms": {}}) == ""

    def test_output_is_sorted_and_newline_terminated(self):
        text = prometheus_text({"counters": {"b": 1, "a": 2}})
        assert text.index("repro_a_total") < text.index("repro_b_total")
        assert text.endswith("\n")

    def test_every_sample_line_is_parseable(self):
        registry = MetricsRegistry()
        registry.increment("query.count", 5)
        registry.observe("query.latency", 0.25)
        for line in prometheus_text(registry).strip().splitlines():
            if line.startswith("#"):
                continue
            name, value = line.split(" ")
            assert name and float(value) >= 0


class TestLabeledExport:
    def test_labeled_counter_samples_share_one_type_header(self):
        registry = MetricsRegistry()
        registry.increment("req", labels={"tenant": "a"})
        registry.increment("req", labels={"tenant": "b"})
        text = prometheus_text(registry)
        assert text.count("# TYPE repro_req_total counter") == 1
        assert 'repro_req_total{tenant="a"} 1' in text
        assert 'repro_req_total{tenant="b"} 1' in text

    def test_gauges_render_with_gauge_type(self):
        registry = MetricsRegistry()
        registry.set_gauge("queue.depth", 4)
        registry.set_gauge("queue.depth", 2, labels={"tenant": "a"})
        text = prometheus_text(registry)
        assert "# TYPE repro_queue_depth gauge" in text
        assert "repro_queue_depth 2" not in text.splitlines()  # labeled only
        assert "repro_queue_depth 4" in text
        assert 'repro_queue_depth{tenant="a"} 2' in text

    def test_bucketed_histogram_renders_prometheus_histogram(self):
        registry = MetricsRegistry()
        for value in (0.05, 0.3, 0.9):
            registry.observe(
                "lat", value, labels={"tenant": "a"}, buckets=(0.1, 0.5, 1.0)
            )
        text = prometheus_text(registry)
        assert "# TYPE repro_lat histogram" in text
        assert 'repro_lat_bucket{tenant="a",le="0.1"} 1' in text
        assert 'repro_lat_bucket{tenant="a",le="0.5"} 2' in text
        assert 'repro_lat_bucket{tenant="a",le="1.0"} 3' in text
        assert 'repro_lat_bucket{tenant="a",le="+Inf"} 3' in text
        assert 'repro_lat_count{tenant="a"} 3' in text
        assert 'repro_lat_sum{tenant="a"}' in text

    def test_above_top_bucket_only_in_inf(self):
        registry = MetricsRegistry()
        registry.observe("lat", 99.0, buckets=(1.0,))
        text = prometheus_text(registry)
        assert 'repro_lat_bucket{le="1.0"} 0' in text
        assert 'repro_lat_bucket{le="+Inf"} 1' in text

    def test_legacy_tenant_shim_emits_old_flattened_names(self):
        registry = MetricsRegistry()
        for name in LEGACY_TENANT_SERIES:
            registry.observe(
                name, 0.02, labels={"tenant": "nurse"}, buckets=LATENCY_BUCKETS
            )
        text = prometheus_text(registry)
        # new labeled histogram form...
        assert 'repro_serving_latency_seconds_bucket{tenant="nurse",le=' in text
        # ...plus the pre-label tenant-in-the-name summary names
        assert "repro_serving_latency_seconds_nurse_count 1" in text
        assert "repro_serving_latency_seconds_nurse_sum" in text
        assert "repro_serving_latency_seconds_nurse_min" in text
        assert "e2e" not in text  # the duplicate series is gone (11.0)

    def test_legacy_shim_skips_series_without_tenant_label(self):
        registry = MetricsRegistry()
        registry.observe("serving.latency_seconds", 0.02)
        text = prometheus_text(registry)
        assert "repro_serving_latency_seconds_count 1" in text
        # no tenant label: nothing flattened beyond the plain series
        assert "repro_serving_latency_seconds__count" not in text

    def test_legacy_shim_ignores_non_tenant_labels(self):
        registry = MetricsRegistry()
        registry.observe(
            "serving.latency_seconds",
            0.02,
            labels={"region": "eu"},
            buckets=LATENCY_BUCKETS,
        )
        text = prometheus_text(registry)
        assert 'repro_serving_latency_seconds_bucket{region="eu"' in text
        assert "repro_serving_latency_seconds_eu" not in text

    def test_legacy_shim_sanitizes_tenant_names(self):
        registry = MetricsRegistry()
        registry.observe(
            "serving.latency_seconds",
            0.02,
            labels={"tenant": "real-estate-buyer"},
            buckets=LATENCY_BUCKETS,
        )
        text = prometheus_text(registry)
        assert (
            "repro_serving_latency_seconds_real_estate_buyer_count 1" in text
        )

    def test_legacy_shim_not_applied_to_other_series(self):
        registry = MetricsRegistry()
        registry.observe(
            "workload.latency_seconds",
            0.02,
            labels={"tenant": "nurse"},
            buckets=LATENCY_BUCKETS,
        )
        text = prometheus_text(registry)
        assert 'repro_workload_latency_seconds_bucket{tenant="nurse"' in text
        assert "repro_workload_latency_seconds_nurse" not in text


class TestPublishWorkload:
    def _profiler(self):
        from repro.obs.record import QueryRecord
        from repro.obs.workload import WorkloadProfiler
        from repro.xpath.fingerprint import query_fingerprint

        profiler = WorkloadProfiler(capacity=4)
        for seconds in (0.001, 0.002):
            profiler.record_query(
                QueryRecord(
                    tenant="nurse",
                    policy="nurse",
                    fingerprint=query_fingerprint("//patient"),
                    engine_seconds=seconds,
                )
            )
        profiler.record_query(
            QueryRecord(
                tenant="doctor",
                policy="doctor",
                fingerprint=query_fingerprint("//secret"),
                error_code="E_LABEL_DENIED",
            )
        )
        return profiler

    def test_publishes_per_tenant_gauges(self):
        registry = MetricsRegistry()
        publish_workload(self._profiler(), registry)
        gauges = registry.snapshot()["gauges"]
        assert gauges['workload.queries{tenant="nurse"}'] == 2
        assert gauges['workload.queries{tenant="doctor"}'] == 1
        assert gauges['workload.denials{tenant="doctor"}'] == 1
        assert gauges['workload.fingerprints{tenant="nurse"}'] == 1
        assert gauges["workload.capacity"] == 4

    def test_no_per_fingerprint_series(self):
        # per-fingerprint series would blow scrape cardinality; only
        # bounded per-tenant totals may reach the registry
        registry = MetricsRegistry()
        profiler = self._profiler()
        publish_workload(profiler, registry)
        digest = profiler.top("nurse")[0]["fingerprint"]
        assert digest not in str(registry.snapshot()["gauges"])

    def test_none_profiler_is_noop(self):
        registry = MetricsRegistry()
        publish_workload(None, registry)
        assert registry.snapshot()["gauges"] == {}

    def test_renders_through_prometheus_text(self):
        registry = MetricsRegistry()
        publish_workload(self._profiler(), registry)
        text = prometheus_text(registry)
        assert "# TYPE repro_workload_queries gauge" in text
        assert 'repro_workload_queries{tenant="nurse"} 2' in text


class TestPublishCacheReport:
    REPORT = {
        "plan_cache": {
            "bytes": 4096,
            "entries": 3,
            "hit_rate": 0.75,
            "evictions": 1,
        },
        "node_tables": {"bytes": 1024, "entries": 1},
        "total_bytes": 5120,
    }

    def test_publishes_labeled_cache_gauges(self):
        registry = MetricsRegistry()
        publish_cache_report(self.REPORT, registry)
        gauges = registry.snapshot()["gauges"]
        assert gauges['cache.bytes{cache="plan_cache"}'] == 4096
        assert gauges['cache.entries{cache="plan_cache"}'] == 3
        assert gauges['cache.hit_ratio{cache="plan_cache"}'] == 0.75
        assert gauges['cache.evictions{cache="plan_cache"}'] == 1
        assert gauges['cache.bytes{cache="node_tables"}'] == 1024
        assert gauges["cache.total_bytes"] == 5120

    def test_sections_without_optional_counters(self):
        registry = MetricsRegistry()
        publish_cache_report(self.REPORT, registry)
        gauges = registry.snapshot()["gauges"]
        # node_tables has no hit_rate/evictions: no phantom series
        assert 'cache.hit_ratio{cache="node_tables"}' not in gauges

    def test_empty_report_is_noop(self):
        registry = MetricsRegistry()
        publish_cache_report({}, registry)
        publish_cache_report(None, registry)
        assert registry.snapshot()["gauges"] == {}

    def test_accepts_real_engine_report(self):
        from repro.core.engine import SecureQueryEngine
        from repro.workloads.hospital import hospital_dtd, nurse_spec

        dtd = hospital_dtd()
        engine = SecureQueryEngine(dtd)
        engine.register_policy("nurse", nurse_spec(dtd), wardNo="1")
        registry = MetricsRegistry()
        publish_cache_report(engine.introspect(), registry)
        gauges = registry.snapshot()["gauges"]
        assert 'cache.entries{cache="plan_cache"}' in gauges
        assert "cache.total_bytes" in gauges
