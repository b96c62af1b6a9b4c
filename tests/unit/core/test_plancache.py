"""Unit tests for the engine-level plan cache: LRU bounds, counters,
and invalidation wiring (``register_policy`` / ``drop_policy`` /
``invalidate``)."""

import pytest

from repro.core.engine import SecureQueryEngine
from repro.core.options import ExecutionOptions
from repro.core.plancache import PlanCache
from repro.workloads.hospital import (
    hospital_document,
    hospital_dtd,
    nurse_spec,
)
from repro.xpath.fingerprint import bind_template, parameterize
from repro.xpath.parser import parse_xpath


@pytest.fixture()
def engine():
    dtd = hospital_dtd()
    built = SecureQueryEngine(dtd)
    built.register_policy("nurse", nurse_spec(dtd), wardNo="2")
    return built


@pytest.fixture()
def document():
    return hospital_document(seed=7, max_branch=4)


class TestPlanCacheUnit:
    def _entry(self, tag):
        # a minimal stand-in for a CompiledQuery (the cache only
        # touches the per-entry hit counter)
        from types import SimpleNamespace

        return SimpleNamespace(tag=tag, hits=0)

    def test_lru_eviction_order(self):
        cache = PlanCache(capacity=2)
        cache.put(("p", "a", None), self._entry("a"))
        cache.put(("p", "b", None), self._entry("b"))
        assert cache.get(("p", "a", None)) is not None  # a now MRU
        cache.put(("p", "c", None), self._entry("c"))  # evicts b
        assert ("p", "b", None) not in cache
        assert ("p", "a", None) in cache
        assert ("p", "c", None) in cache
        assert cache.evictions == 1

    def test_hit_miss_counters(self):
        cache = PlanCache(capacity=4)
        key = ("p", "q", None)
        assert cache.get(key) is None
        cache.put(key, self._entry("q"))
        assert cache.get(key) is not None
        stats = cache.stats()
        assert stats.hits == 1
        assert stats.misses == 1
        assert stats.lookups == 2
        assert stats.hit_rate == 0.5
        assert stats.as_dict()["hits"] == 1

    def test_capacity_zero_disables(self):
        cache = PlanCache(capacity=0)
        key = ("p", "q", None)
        cache.put(key, self._entry("q"))
        assert cache.get(key) is None
        assert len(cache) == 0

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            PlanCache(capacity=-1)

    def test_policy_scoped_invalidation(self):
        cache = PlanCache(capacity=8)
        cache.put(("p1", "a", None), self._entry("a"))
        cache.put(("p2", "b", None), self._entry("b"))
        removed = cache.invalidate("p1")
        assert removed == 1
        assert ("p2", "b", None) in cache
        assert cache.invalidations == 1

    def test_clear_resets_counters(self):
        cache = PlanCache(capacity=2)
        cache.put(("p", "a", None), self._entry("a"))
        cache.get(("p", "a", None))
        cache.clear()
        stats = cache.stats()
        assert len(cache) == 0
        assert stats.hits == 0 and stats.misses == 0


class TestEngineIntegration:
    def test_repeated_query_hits(self, engine, document):
        engine.query("nurse", "//patient", document)
        engine.query("nurse", "//patient", document)
        stats = engine.plan_cache_stats()
        assert stats.hits >= 1
        assert stats.misses >= 1

    def test_string_and_ast_queries_share_entries(self, engine, document):
        from repro.xpath.parser import parse_xpath

        engine.query("nurse", "//patient/name", document)
        before = len(engine.plan_cache)
        engine.query("nurse", parse_xpath("//patient/name"), document)
        assert len(engine.plan_cache) == before

    def test_drop_policy_invalidates(self, engine, document):
        engine.query("nurse", "//patient", document)
        assert len(engine.plan_cache) == 1
        engine.drop_policy("nurse")
        assert len(engine.plan_cache) == 0

    def test_invalidate_drops_plans(self, engine, document):
        engine.query("nurse", "//patient", document)
        engine.invalidate("nurse")
        assert len(engine.plan_cache) == 0
        engine.query("nurse", "//patient", document)
        assert not engine.query(
            "nurse", "//patient", document
        ).report.cache_hit or len(engine.plan_cache) == 1

    def test_invalidate_all_drops_plans(self, engine, document):
        engine.query("nurse", "//patient", document)
        engine.invalidate()
        assert len(engine.plan_cache) == 0

    def test_reregistered_policy_does_not_reuse_plans(self, document):
        dtd = hospital_dtd()
        engine = SecureQueryEngine(dtd)
        engine.register_policy("nurse", nurse_spec(dtd), wardNo="2")
        engine.query("nurse", "//patient", document)
        engine.drop_policy("nurse")
        engine.register_policy("nurse", nurse_spec(dtd), wardNo="4")
        result = engine.query("nurse", "//patient", document)
        assert not result.report.cache_hit

    def test_bounded_by_plan_cache_size(self, document):
        dtd = hospital_dtd()
        engine = SecureQueryEngine(dtd, plan_cache_size=3)
        engine.register_policy("nurse", nurse_spec(dtd), wardNo="2")
        for label in ("patient", "name", "wardNo", "treatment", "bill"):
            engine.query("nurse", "//" + label, document)
        assert len(engine.plan_cache) == 3
        assert engine.plan_cache_stats().evictions == 2

    def test_rewrite_query_primes_cache(self, engine, document):
        rewritten = engine.rewrite_query("nurse", "//patient")
        assert len(engine.plan_cache) == 1
        result = engine.query("nurse", "//patient", document)
        assert result.report.cache_hit
        assert str(result.report.rewritten) == str(rewritten)

    def test_report_timings_present(self, engine, document):
        first = engine.query("nurse", "//patient", document)
        assert not first.report.cache_hit
        assert {"parse", "rewrite", "optimize"} <= set(first.report.timings)
        second = engine.query("nurse", "//patient", document)
        assert second.report.cache_hit
        assert "evaluate" in second.report.timings
        assert second.report.total_time() > 0


class TestRegistryCounters:
    """Cache traffic mirrors into the process-wide metrics registry
    when metrics are enabled (and never otherwise)."""

    @pytest.fixture(autouse=True)
    def enabled_registry(self):
        from repro.obs.metrics import (
            disable_metrics,
            enable_metrics,
            metrics_registry,
        )

        metrics_registry().reset()
        enable_metrics()
        yield metrics_registry()
        disable_metrics()
        metrics_registry().reset()

    def _counters(self, registry):
        return registry.snapshot()["counters"]

    def test_hits_and_misses_recorded(self, enabled_registry, engine, document):
        engine.query("nurse", "//patient", document)
        engine.query("nurse", "//patient", document)
        counters = self._counters(enabled_registry)
        assert counters["plan_cache.misses"] == 1
        assert counters["plan_cache.hits"] == 1

    def test_evictions_recorded(self, enabled_registry, document):
        dtd = hospital_dtd()
        engine = SecureQueryEngine(dtd, plan_cache_size=2)
        engine.register_policy("nurse", nurse_spec(dtd), wardNo="2")
        for label in ("patient", "name", "wardNo", "bill"):
            engine.query("nurse", "//" + label, document)
        counters = self._counters(enabled_registry)
        assert counters["plan_cache.evictions"] == 2
        assert engine.plan_cache_stats().evictions == 2

    def test_invalidations_recorded(self, enabled_registry, engine, document):
        engine.query("nurse", "//patient", document)
        engine.query("nurse", "//patient/name", document)
        engine.invalidate("nurse")
        counters = self._counters(enabled_registry)
        assert counters["plan_cache.invalidations"] == 2

    def test_registry_matches_cache_stats(
        self, enabled_registry, engine, document
    ):
        for _ in range(3):
            engine.query("nurse", "//patient", document)
        counters = self._counters(enabled_registry)
        stats = engine.plan_cache_stats()
        assert counters["plan_cache.hits"] == stats.hits
        assert counters["plan_cache.misses"] == stats.misses

    def test_disabled_metrics_keep_local_counters_only(
        self, enabled_registry, engine, document
    ):
        from repro.obs.metrics import disable_metrics

        disable_metrics()
        engine.query("nurse", "//patient", document)
        counters = self._counters(enabled_registry)
        assert counters.get("plan_cache.misses", 0) == 0
        assert engine.plan_cache_stats().misses == 1


class TestExecutionShapeKeys:
    """Plans have one execution path, so the cache key carries no
    execution shape: a request carrying 8.x's retired ``strategy`` key
    (``"columnar"`` was the wire alias of the one path) shares its
    entries."""

    def test_columnar_alias_hits_the_virtual_entry(self, engine, document):
        from repro.xmlmodel.serialize import serialize

        virtual = engine.query("nurse", "//patient/name", document)
        assert not virtual.report.cache_hit
        columnar = engine.query(
            "nurse",
            "//patient/name",
            document,
            options=ExecutionOptions.from_dict({"strategy": "columnar"}),
        )
        assert columnar.report.cache_hit
        assert [serialize(node) for node in columnar] == [
            serialize(node) for node in virtual
        ]

    def test_keys_carry_no_execution_shape(self, engine, document):
        # the key is (policy, query, height): neither tracing nor the
        # retired 6.x optimize/project or 8.x strategy keys open a
        # second entry
        engine.query("nurse", "//patient", document)
        for options in (
            ExecutionOptions.from_dict({"strategy": "materialized"}),
            ExecutionOptions(trace=True),
            ExecutionOptions.from_dict({"optimize": False, "project": False}),
        ):
            engine.query("nurse", "//patient", document, options=options)
        assert engine.plan_cache.keys() == [
            ("nurse", "//patient", None)
        ]
        (entry,) = engine.plan_cache.entries()
        assert entry.key == ("nurse", "//patient", None)

    def test_columnar_without_cache_does_not_prime(self, engine, document):
        result = engine.query(
            "nurse",
            "//patient",
            document,
            options=ExecutionOptions(use_cache=False),
        )
        assert not result.report.cache_hit
        assert len(engine.plan_cache) == 0


class TestOneCompilePerQuery:
    """A cold compile rewrites once, optimizes each element target once
    and compiles each target once.  The union queries below used to
    pay a whole-query optimize as well, whose output only the removed
    unprojected path ran; its DTD simulation checks dominated compile
    time."""

    SHAPES = (
        ("nurse", '//dept[patientInfo/patient/name = "k"]//staff/* | '
                  '//patient[wardNo = "k"]/name'),
        ("nurse", '//patient[name = "k" or not(wardNo = "k")]//bill | '
                  '//staffInfo//*[. = "k"]'),
        ("doctor", '//dept[.//patient/wardNo = "k"]/patientInfo//bill | '
                   '//trial/bill'),
        ("doctor", '//*[wardNo = "k" or name = "k"]//text() | '
                   '//regular/*'),
        ("buyer", '//house[r-e.warranty = "k"]//text() | '
                  '//apartment[not(r-e.rent = "k")]/r-e.location/text()'),
        ("buyer", '//*[r-e.unit-type = "k"]/r-e.asking-price/text() | '
                  '//buyer-info[company-id = "k"]/company-id/text()'),
    )

    #: ``simulation._check`` calls for one cold compile of SHAPES: 1,494
    #: when this bound was pinned, 12,836 with the whole-query optimize.
    MAX_CHECKS = 2_000

    @pytest.fixture()
    def engines(self):
        from repro.workloads.adex import adex_document, adex_engine
        from repro.workloads.hospital import doctor_spec

        dtd = hospital_dtd()
        hospital = SecureQueryEngine(dtd)
        hospital.register_policy("nurse", nurse_spec(dtd), wardNo="2")
        hospital.register_policy("doctor", doctor_spec(dtd))
        adex = adex_engine()
        return {
            "nurse": (hospital, "nurse", hospital_document(seed=0)),
            "doctor": (hospital, "doctor", hospital_document(seed=0)),
            "buyer": (
                adex,
                adex.policies()[0],
                adex_document(seed=0, buyers=4, ads=8),
            ),
        }

    def _counting(self, monkeypatch, owner, name):
        calls = []
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
        return calls

    def test_simulation_checks_stay_bounded(self, engines, monkeypatch):
        from repro.core import simulation

        checks = self._counting(monkeypatch, simulation, "_check")
        for key, text in self.SHAPES:
            engine, policy, document = engines[key]
            assert not engine.query(policy, text, document).report.cache_hit
        assert 0 < len(checks) <= self.MAX_CHECKS

    def test_optimize_once_per_element_target(self, engines, monkeypatch):
        from repro.core.optimize import Optimizer
        from repro.core.rewrite import Rewriter

        rewrites = self._counting(monkeypatch, Rewriter, "rewrite_targets")
        optimizes = self._counting(monkeypatch, Optimizer, "optimize")
        for key, text in self.SHAPES:
            engine, policy, document = engines[key]
            del rewrites[:], optimizes[:]
            result = engine.query(policy, text, document)
            template, values = parameterize(parse_xpath(text))
            compiled = engine.plan_cache.get((policy, str(template), None))
            element_targets = [
                plan for _, is_text, plan in compiled.plans if not is_text
            ]
            assert len(rewrites) == 1
            assert len(optimizes) == len(element_targets)
            assert str(result.report.optimized) == str(
                bind_template(compiled.optimized, values)
            )
