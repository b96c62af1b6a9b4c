"""The security canary end-to-end: at sample rate 1.0 a correct
engine produces zero violations across both workloads, and an
engine with a deliberately poisoned plan cache (a mis-rewritten
query that leaks inaccessible names) makes the canary fire.  A
concurrent soak replays the mixed-tenant serving workload with every
answer checked.  The canary's bounded oracle-view cache builds once
per (policy, document)."""

import pytest

from repro.core.engine import SecureQueryEngine
from repro.core.materialize import _Materializer
from repro.core.options import ExecutionOptions
from repro.obs.canary import ORACLE_VIEW_CAPACITY
from repro.obs.events import RingBufferSink
from repro.serving.replay import mixed_workload, replay, standard_catalog
from repro.serving.server import QueryServer
from repro.workloads.adex import adex_document, adex_dtd, adex_spec
from repro.workloads.hospital import (
    doctor_spec,
    hospital_document,
    hospital_dtd,
    nurse_spec,
)
from repro.workloads.queries import ADEX_QUERY_TEXTS
from repro.xpath.parser import parse_xpath
from repro.xpath.plan import compile_path

NURSE_QUERIES = [
    "//patient/name",
    "//patient//bill",
    "//dummy2/medication",
    "//patient[treatment/dummy1]/name",
    "//staffInfo//doctor | //staffInfo//nurse",
    "//name/text()",
]

DOCTOR_QUERIES = [
    "//clinicalTrial//name",
    "//patient/name",
    "//treatment/trial/bill",
]


def hospital_engine():
    dtd = hospital_dtd()
    engine = SecureQueryEngine(dtd)
    engine.register_policy("nurse", nurse_spec(dtd), wardNo="2")
    engine.register_policy("doctor", doctor_spec(dtd))
    return engine


class TestZeroViolations:
    # 8.x's wire spellings of the retired ``strategy`` key: each lands
    # on the one path, which the canary checks
    @pytest.mark.parametrize("strategy", ["virtual", "columnar"])
    def test_hospital_workload_is_clean(self, strategy):
        engine = hospital_engine()
        ring = engine.add_sink(RingBufferSink(capacity=256))
        canary = engine.enable_canary(sample_rate=1.0)
        options = ExecutionOptions.from_dict({"strategy": strategy})
        for seed in (0, 7, 13):
            document = hospital_document(seed=seed, max_branch=4)
            for query in NURSE_QUERIES:
                engine.query("nurse", query, document, options=options)
            for query in DOCTOR_QUERIES:
                engine.query("doctor", query, document, options=options)
        checks = ring.events(kind="canary")
        expected = 3 * (len(NURSE_QUERIES) + len(DOCTOR_QUERIES))
        assert len(checks) == expected
        assert all(event.ok for event in checks)
        assert canary.checks == expected and canary.violations == 0

    def test_adex_workload_is_clean(self):
        dtd = adex_dtd()
        engine = SecureQueryEngine(dtd)
        engine.register_policy("adex", adex_spec(dtd))
        ring = engine.add_sink(RingBufferSink(capacity=256))
        canary = engine.enable_canary(sample_rate=1.0)
        document = adex_document(seed=1, buyers=10, ads=30)
        for query in ADEX_QUERY_TEXTS.values():
            engine.query("adex", query, document)
        checks = ring.events(kind="canary")
        assert len(checks) == len(ADEX_QUERY_TEXTS)
        assert all(event.violations == 0 for event in checks)
        assert canary.violations == 0


class TestServedSoak:
    def test_concurrent_replay_is_clean(self):
        """The mixed-tenant replay through an 8-client, 4-worker
        ``QueryServer`` with the canary sampling every answer: the
        concurrent serving path answers exactly like the
        materialized-view oracle."""
        catalog = standard_catalog(seed=0)
        rings = []
        for ref in catalog.refs():
            engine = catalog.resolve(ref)[0]
            rings.append(engine.add_sink(RingBufferSink(capacity=256)))
            engine.enable_canary(sample_rate=1.0, seed=0)
        requests = mixed_workload(repetitions=2, seed=0)
        with QueryServer(catalog) as server:
            stats = replay(server, requests, clients=8)
        assert not stats["errors"], stats["errors"]
        checks = [
            event for ring in rings for event in ring.events(kind="canary")
        ]
        assert len(checks) == len(requests) > 0
        assert sum(event.violations for event in checks) == 0


class TestInjectedLeak:
    """Poison the warmed plan cache with a mis-rewritten query — the
    unqualified ``//name``, which reaches names in departments the
    nurse's ward predicate excludes — and verify the canary catches
    the resulting leak.  This is the failure mode the canary exists
    for: the engine still answers 'successfully', only the oracle
    comparison can tell the answer is wrong."""

    QUERY = "//patient/name"

    def poisoned_engine(self, document):
        engine = hospital_engine()
        ring = engine.add_sink(RingBufferSink(capacity=64))
        engine.enable_canary(sample_rate=1.0)
        # warm the cache so the compiled entry (and its per-target
        # plans) exist ...
        engine.query("nurse", self.QUERY, document)
        key = ("nurse", self.QUERY, None)
        compiled = engine._plan_cache.get(key)
        assert compiled is not None and compiled.plans
        # ... then swap every per-target plan for the leaky one,
        # keeping the (target, is_text) envelope intact
        leaky = compile_path(parse_xpath("//name"))
        compiled.plans = tuple(
            (target, is_text, leaky)
            for target, is_text, _ in compiled.plans
        )
        ring.clear()
        return engine, ring

    def test_canary_fires_on_leak(self):
        # seed 0: the nurse's view exposes 6 names, the raw document
        # holds 12 — the poisoned plan serves all of them
        document = hospital_document(seed=0, max_branch=4)
        engine, ring = self.poisoned_engine(document)
        results = engine.query("nurse", self.QUERY, document)
        (event,) = ring.events(kind="canary")
        assert not event.ok
        assert event.extra > 0
        assert event.violations == event.missing + event.extra
        assert event.actual_count == len(results) > event.expected_count
        assert engine.canary.violations > 0

    def test_clean_engine_same_document_is_quiet(self):
        # control: identical document and query, no poisoning
        document = hospital_document(seed=0, max_branch=4)
        engine = hospital_engine()
        ring = engine.add_sink(RingBufferSink(capacity=64))
        engine.enable_canary(sample_rate=1.0)
        engine.query("nurse", self.QUERY, document)
        (event,) = ring.events(kind="canary")
        assert event.ok and event.violations == 0

    def test_leak_shows_in_audit_stats(self):
        from repro.obs.audit import AuditLog

        document = hospital_document(seed=0, max_branch=4)
        engine, ring = self.poisoned_engine(document)
        engine.query("nurse", self.QUERY, document)
        stats = AuditLog.from_sink(ring).stats()
        assert stats["nurse"]["canary_violations"] > 0


class TestOracleViews:
    """The canary's own bounded cache of oracle views: one build per
    (registered policy, document), dropped by ``invalidate()``, never
    shared across a drop and re-registration of a policy name."""

    def test_twenty_checks_build_one_view(self, monkeypatch):
        builds = []
        run = _Materializer.run

        def counting(self):
            builds.append(self.document_root)
            return run(self)

        monkeypatch.setattr(_Materializer, "run", counting)
        engine = hospital_engine()
        canary = engine.enable_canary(sample_rate=1.0)
        document = hospital_document(seed=7, max_branch=4)
        for index in range(20):
            engine.query(
                "nurse", NURSE_QUERIES[index % len(NURSE_QUERIES)], document
            )
        assert canary.checks == 20 and canary.violations == 0
        assert builds == [document]
        assert canary.view_builds == 1

    def test_invalidate_rebuilds(self):
        engine = hospital_engine()
        canary = engine.enable_canary(sample_rate=1.0)
        document = hospital_document(seed=7, max_branch=4)
        engine.query("nurse", "//patient/name", document)
        engine.query("nurse", "//patient//bill", document)
        assert canary.view_builds == 1
        engine.invalidate()
        engine.query("nurse", "//patient/name", document)
        assert canary.view_builds == 2 and canary.violations == 0

    def test_reregistered_policy_is_checked_against_its_new_spec(self):
        dtd = hospital_dtd()
        engine = hospital_engine()
        canary = engine.enable_canary(sample_rate=1.0)
        document = hospital_document(seed=7, max_branch=4)
        assert engine.query("nurse", "//bill", document)
        engine.drop_policy("nurse")
        stricter = nurse_spec(dtd)
        stricter.annotate("trial", "bill", "N")
        stricter.annotate("regular", "bill", "N")
        engine.register_policy("nurse", stricter, wardNo="2")
        # the old view (bills visible) would report every one missing
        assert engine.query("nurse", "//bill", document) == []
        assert engine.query("nurse", "//patient/name", document)
        assert canary.view_builds == 2
        assert canary.checks == 3 and canary.violations == 0

    def test_cache_is_bounded(self):
        engine = hospital_engine()
        canary = engine.enable_canary(sample_rate=1.0)
        documents = [
            hospital_document(seed=seed, max_branch=2)
            for seed in range(ORACLE_VIEW_CAPACITY + 3)
        ]
        for document in documents:
            engine.query("nurse", "//patient/name", document)
        views = engine.introspect()["canary_oracle_views"]
        assert views["entries"] == ORACLE_VIEW_CAPACITY
        assert views["by_policy"] == {"nurse": ORACLE_VIEW_CAPACITY}
        assert views["bytes"] > 0
        # least recently used out: the newest view is still cached
        engine.query("nurse", "//patient//bill", documents[-1])
        assert canary.view_builds == len(documents)
        engine.query("nurse", "//patient//bill", documents[0])
        assert canary.view_builds == len(documents) + 1
        assert canary.violations == 0
