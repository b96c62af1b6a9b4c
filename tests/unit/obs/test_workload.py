"""Per-tenant workload profiling (:mod:`repro.obs.workload`)."""

import threading

import pytest

from repro.obs.record import QueryRecord
from repro.obs.workload import WorkloadProfiler
from repro.xpath.fingerprint import query_fingerprint


def _fp(query):
    return query_fingerprint(query)


def _answered(profiler, tenant, policy, fingerprint, seconds, **fields):
    """Account one answered query through its record."""
    profiler.record_query(
        QueryRecord(
            tenant=tenant,
            policy=policy,
            fingerprint=fingerprint,
            engine_seconds=seconds,
            **fields,
        )
    )


def _failed(profiler, tenant, policy, fingerprint, denied=False):
    """Account one failed query: a label denial or another error."""
    profiler.record_query(
        QueryRecord(
            tenant=tenant,
            policy=policy,
            fingerprint=fingerprint,
            error_code="E_LABEL_DENIED" if denied else "E_BUDGET",
        )
    )


class TestRecording:
    def test_same_shape_folds_into_one_entry(self):
        profiler = WorkloadProfiler()
        _answered(
            profiler, "nurse", "nurse", _fp('//patient[wardNo = "1"]'), 0.001
        )
        _answered(
            profiler, "nurse", "nurse", _fp('//patient[wardNo = "7"]'), 0.002
        )
        top = profiler.top("nurse")
        assert len(top) == 1
        assert top[0]["count"] == 2

    def test_entry_statistics(self):
        profiler = WorkloadProfiler()
        fp = _fp("//patient/name")
        _answered(
            profiler, "t", "p", fp, 0.010, visits=100, result_count=5, cache_hit=False
        )
        _answered(
            profiler, "t", "p", fp, 0.001, visits=0, result_count=5, cache_hit=True
        )
        (entry,) = profiler.top("t")
        assert entry["count"] == 2
        assert entry["visits"] == 100
        assert entry["results"] == 10
        assert entry["cache_hit_ratio"] == 0.5
        assert entry["shape"] == fp.shape
        assert entry["p95_ms"] > 0

    def test_tenants_are_isolated(self):
        profiler = WorkloadProfiler()
        _answered(profiler, "a", "a", _fp("//x"), 0.001)
        _answered(profiler, "b", "b", _fp("//y"), 0.001)
        assert profiler.tenants() == ["a", "b"]
        assert len(profiler.top("a")) == 1
        assert profiler.top("a")[0]["tenant"] == "a"

    def test_errors_and_denials(self):
        profiler = WorkloadProfiler()
        fp = _fp("//secret")
        _failed(profiler, "t", "p", fp, denied=True)
        _failed(profiler, "t", "p", fp, denied=False)
        report = profiler.report()["tenants"]["t"]
        assert report["denials"] == 1
        assert report["errors"] == 1
        assert report["queries"] == 2
        (entry,) = report["top"]
        assert entry["denials"] == 1
        assert entry["errors"] == 1

    def test_accepts_bare_digest_strings(self):
        profiler = WorkloadProfiler()
        _answered(profiler, "t", "p", "abcd1234", 0.001)
        (entry,) = profiler.top("t")
        assert entry["fingerprint"] == "abcd1234"
        assert entry["shape"] == ""

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            WorkloadProfiler(capacity=0)


class TestSpaceSaving:
    def test_cardinality_is_bounded(self):
        profiler = WorkloadProfiler(capacity=4)
        for index in range(50):
            _answered(profiler, "t", "p", "shape-%02d" % index, 0.001)
        report = profiler.report()["tenants"]["t"]
        assert report["fingerprints"] == 4
        assert report["evictions"] == 50 - 4
        assert report["queries"] == 50

    def test_newcomer_inherits_victim_count_as_error(self):
        profiler = WorkloadProfiler(capacity=2)
        for _ in range(5):
            _answered(profiler, "t", "p", "hot", 0.001)
        _answered(profiler, "t", "p", "warm", 0.001)
        _answered(profiler, "t", "p", "new", 0.001)  # evicts "warm"
        by_digest = {e["fingerprint"]: e for e in profiler.top("t")}
        assert set(by_digest) == {"hot", "new"}
        assert by_digest["hot"]["count"] == 5
        assert by_digest["hot"]["error_bound"] == 0
        # inherited warm's count (1) plus its own arrival
        assert by_digest["new"]["count"] == 2
        assert by_digest["new"]["error_bound"] == 1

    def test_heavy_hitter_survives_churn(self):
        profiler = WorkloadProfiler(capacity=8)
        for _ in range(100):
            _answered(profiler, "t", "p", "heavy", 0.001)
        for index in range(200):  # 200 singletons churn the sketch
            _answered(profiler, "t", "p", "one-off-%d" % index, 0.001)
        top = profiler.top("t", n=1)
        assert top[0]["fingerprint"] == "heavy"
        assert top[0]["count"] >= 100

    def test_per_tenant_budgets_are_independent(self):
        profiler = WorkloadProfiler(capacity=2)
        for index in range(10):
            _answered(profiler, "a", "a", "shape-%d" % index, 0.001)
        _answered(profiler, "b", "b", "only", 0.001)
        report = profiler.report()
        assert report["tenants"]["a"]["fingerprints"] == 2
        assert report["tenants"]["b"]["fingerprints"] == 1
        assert report["tenants"]["b"]["evictions"] == 0


class TestReporting:
    def test_top_orders_by_count_then_digest(self):
        profiler = WorkloadProfiler()
        for _ in range(3):
            _answered(profiler, "t", "p", "bb", 0.001)
        _answered(profiler, "t", "p", "aa", 0.001)
        _answered(profiler, "t", "p", "cc", 0.001)
        digests = [e["fingerprint"] for e in profiler.top("t")]
        assert digests == ["bb", "aa", "cc"]

    def test_top_n_truncates(self):
        profiler = WorkloadProfiler()
        for index in range(5):
            _answered(profiler, "t", "p", "s%d" % index, 0.001)
        assert len(profiler.top("t", n=2)) == 2
        assert len(profiler.top("t", n=0)) == 0

    def test_report_filters_by_tenant(self):
        profiler = WorkloadProfiler()
        _answered(profiler, "a", "a", "x", 0.001)
        _answered(profiler, "b", "b", "y", 0.001)
        report = profiler.report(tenant="a")
        assert list(report["tenants"]) == ["a"]
        assert profiler.report(tenant="missing")["tenants"] == {}

    def test_report_is_json_safe(self):
        import json

        profiler = WorkloadProfiler()
        _answered(profiler, "t", "p", _fp("//patient"), 0.001)
        json.dumps(profiler.report())

    def test_stats_rollup(self):
        profiler = WorkloadProfiler(capacity=2)
        _answered(profiler, "a", "a", "x", 0.001)
        _failed(profiler, "b", "b", "y", denied=True)
        stats = profiler.stats()
        assert stats["tenants"] == 2
        assert stats["queries"] == 2
        assert stats["denials"] == 1
        assert stats["capacity"] == 2

    def test_reset(self):
        profiler = WorkloadProfiler()
        _answered(profiler, "t", "p", "x", 0.001)
        profiler.reset()
        assert profiler.tenants() == []
        assert profiler.stats()["queries"] == 0

    def test_unknown_tenant_top_is_empty(self):
        assert WorkloadProfiler().top("nobody") == []


class TestConcurrency:
    def test_sixteen_threads_bounded_and_consistent(self):
        """16 threads hammer a shared profiler with overlapping and
        distinct shapes; totals must balance and every sketch must
        respect the capacity bound."""
        profiler = WorkloadProfiler(capacity=8)
        threads = 16
        per_thread = 200
        barrier = threading.Barrier(threads)

        def worker(worker_id):
            tenant = "tenant-%d" % (worker_id % 4)
            barrier.wait()
            for index in range(per_thread):
                if index % 10 == 0:
                    _failed(
                        profiler, tenant, tenant, "err-%d" % worker_id, denied=False
                    )
                else:
                    _answered(
                        profiler, tenant,
                        tenant,
                        "shape-%d" % (index % 20),
                        0.001,
                        cache_hit=index % 2 == 0,
                    )

        pool = [
            threading.Thread(target=worker, args=(i,)) for i in range(threads)
        ]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()

        stats = profiler.stats()
        assert stats["queries"] == threads * per_thread
        assert stats["errors"] == threads * (per_thread // 10)
        report = profiler.report()
        assert set(report["tenants"]) == {
            "tenant-%d" % i for i in range(4)
        }
        for bucket in report["tenants"].values():
            assert bucket["fingerprints"] <= profiler.capacity
            assert bucket["queries"] == 4 * per_thread
