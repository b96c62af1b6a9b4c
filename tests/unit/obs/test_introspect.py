"""Cache/memory introspection (:mod:`repro.obs.introspect`)."""

import json

import pytest

from repro.core.engine import SecureQueryEngine
from repro.dtd.generator import DocumentGenerator
from repro.obs.introspect import (
    engine_report,
    plan_cache_report,
    report_total_bytes,
)
from repro.workloads.hospital import hospital_dtd, nurse_spec


@pytest.fixture()
def engine():
    dtd = hospital_dtd()
    engine = SecureQueryEngine(dtd)
    engine.register_policy("nurse", nurse_spec(dtd), wardNo="1")
    return engine


@pytest.fixture()
def document():
    return DocumentGenerator(hospital_dtd(), seed=3).generate()


class TestPlanCacheReport:
    def test_empty_cache(self, engine):
        report = plan_cache_report(engine.plan_cache)
        assert report["entries"] == 0
        assert report["bytes"] == 0
        assert report["distinct_fingerprints"] == 0

    def test_counts_entries_and_fingerprints(self, engine, document):
        engine.query("nurse", "//patient/name", document)
        engine.query("nurse", '//patient[wardNo = "1"]', document)
        engine.query("nurse", '//patient[wardNo = "2"]', document)
        report = plan_cache_report(engine.plan_cache)
        # three distinct texts, two shapes: the wardNo variants share
        # one entry (the second is a hit) and one fingerprint
        assert report["entries"] == 2
        assert report["distinct_fingerprints"] == 2
        assert report["bytes"] > 0
        assert report["hits"] == 1


class TestEngineReport:
    def test_sections_and_totals(self, engine, document):
        engine.query(
            "nurse",
            "//patient/name",
            document,
        )
        engine.enable_canary(1.0)
        engine.query("nurse", "//patient", document)
        report = engine.introspect()
        assert report["plan_cache"]["entries"] >= 1
        assert report["node_tables"]["entries"] == 1
        assert report["node_tables"]["rows"] > 0
        assert report["node_tables"]["bytes"] > 0
        assert "document_indexes" not in report
        assert "materialized_views" not in report
        views = report["canary_oracle_views"]
        assert views["entries"] == 1
        assert views["nodes"] > 0
        assert views["by_policy"] == {"nurse": 1}
        assert report["total_bytes"] == report_total_bytes(report)
        assert report["total_bytes"] >= (
            report["plan_cache"]["bytes"] + report["node_tables"]["bytes"]
        )

    def test_fresh_engine_is_near_empty(self, engine):
        report = engine_report(engine)
        assert report["node_tables"] == {
            "entries": 0,
            "rows": 0,
            "bytes": 0,
        }
        assert report["canary_oracle_views"]["entries"] == 0

    def test_report_is_json_safe(self, engine, document):
        engine.query("nurse", "//patient/name", document)
        json.dumps(engine.introspect())

    def test_invalidation_shrinks_the_report(self, engine, document):
        engine.query("nurse", "//patient/name", document)
        assert engine.introspect()["node_tables"]["entries"] == 1
        engine.invalidate()
        report = engine.introspect()
        assert report["node_tables"]["entries"] == 0
        assert report["plan_cache"]["entries"] == 0


class TestNbytes:
    def test_node_table_nbytes_positive_and_stable(self, document):
        from repro.xmlmodel.store import build_node_table

        table = build_node_table(document)
        assert table.nbytes() > 0
        assert table.nbytes() == table.nbytes()

    def test_node_table_nbytes_grows_with_rows(self, document):
        from repro.xmlmodel.store import build_node_table

        bigger = DocumentGenerator(
            hospital_dtd(), seed=3, max_branch=6
        ).generate()
        small = build_node_table(document)
        large = build_node_table(bigger)
        if large.size > small.size:
            assert large.nbytes() > small.nbytes()

