"""The HTTP front end: trace header round-trip and debug endpoints."""

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.core.engine import SecureQueryEngine
from repro.obs.events import RingBufferSink
from repro.robustness.faults import FaultPlan, FaultSpec
from repro.serving.httpd import make_http_server
from repro.serving.server import EngineCatalog, QueryServer
from repro.workloads.hospital import (
    hospital_document,
    hospital_dtd,
    nurse_spec,
)


@pytest.fixture(scope="module")
def served():
    dtd = hospital_dtd()
    engine = SecureQueryEngine(dtd)
    engine.register_policy("nurse", nurse_spec(dtd), wardNo="2")
    catalog = EngineCatalog().add(
        "hospital", engine, hospital_document(seed=7, max_branch=4)
    )
    with QueryServer(catalog) as server:
        httpd = make_http_server(server, port=0)
        thread = threading.Thread(target=httpd.serve_forever, daemon=True)
        thread.start()
        try:
            yield server, "http://127.0.0.1:%d" % httpd.server_address[1]
        finally:
            httpd.shutdown()
            httpd.server_close()
            thread.join(timeout=5)


def _get(url):
    try:
        with urllib.request.urlopen(url, timeout=10) as reply:
            return reply.status, dict(reply.headers), json.loads(reply.read())
    except urllib.error.HTTPError as error:
        return error.code, dict(error.headers), json.loads(error.read())


def _post(url, payload, headers=None):
    body = json.dumps(payload).encode("utf-8")
    request = urllib.request.Request(
        url, data=body, headers=dict(headers or {}), method="POST"
    )
    request.add_header("Content-Type", "application/json")
    try:
        with urllib.request.urlopen(request, timeout=10) as reply:
            return reply.status, dict(reply.headers), json.loads(reply.read())
    except urllib.error.HTTPError as error:
        return error.code, dict(error.headers), json.loads(error.read())


class TestQueryEndpoint:
    def test_query_minted_trace_echoed_in_header_and_body(self, served):
        _, base = served
        status, headers, body = _post(
            base + "/query",
            {"policy": "nurse", "query": "//patient", "document": "hospital"},
        )
        assert status == 200
        assert body["ok"]
        assert len(body["trace_id"]) == 32
        assert headers["X-Repro-Trace"] == body["trace_id"]

    def test_client_trace_header_adopted(self, served):
        _, base = served
        trace_id = "feed" * 8
        status, headers, body = _post(
            base + "/query",
            {"policy": "nurse", "query": "//patient", "document": "hospital"},
            headers={"X-Repro-Trace": "%s-00000000000000aa" % trace_id},
        )
        assert status == 200
        assert body["trace_id"] == trace_id
        assert headers["X-Repro-Trace"] == trace_id

    def test_traced_response_carries_view_level_facts_only(self, served):
        # the rewritten and optimized queries and the operator profile
        # name document labels and the policy's ward condition; the
        # tenant's response must carry neither, even when traced
        _, base = served
        status, _, body = _post(
            base + "/query",
            {
                "policy": "nurse",
                "query": "//patient/name",
                "document": "hospital",
                "options": {"trace": True},
            },
        )
        assert status == 200 and body["ok"] and body["results"]
        report = body["report"]
        assert report["result_count"] == len(body["results"])
        assert not {"rewritten", "optimized", "profile"} & set(report)
        text = json.dumps(body)
        assert "clinicalTrial" not in text
        assert "wardNo" not in text

    def test_malformed_body_is_400(self, served):
        _, base = served
        request = urllib.request.Request(
            base + "/query", data=b"not json", method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as caught:
            urllib.request.urlopen(request, timeout=10)
        assert caught.value.code == 400



class TestServerSideFailures:
    """Failures on the server's side are 5xx, and the message of an
    internal exception stays in the operator's audit trail."""

    NURSE = {
        "policy": "nurse",
        "query": "//patient/name",
        "document": "hospital",
    }

    def test_serving_fault_is_500(self, served):
        _, base = served
        with FaultPlan(FaultSpec("serving.execute", at=1)):
            status, _, body = _post(base + "/query", self.NURSE)
        assert status == 500
        assert body["error_code"] == "E_FAULT"

    def test_internal_error_is_500_without_its_message(self, served):
        server, base = served
        engine = server.catalog.engines()[0]
        ring = engine.add_sink(RingBufferSink(capacity=64))
        try:
            with FaultPlan(
                FaultSpec("materialize", error=KeyError("clinicalTrial"))
            ):
                status, _, body = _post(base + "/query", self.NURSE)
        finally:
            engine.remove_sink(ring)
        assert status == 500
        assert body["error_code"] == "E_UNKNOWN"
        assert body["error_message"] == "internal error"
        assert "clinicalTrial" not in json.dumps(body)
        (event,) = ring.events(kind="error")
        assert event.code == "E_UNKNOWN"
        assert "clinicalTrial" in event.message

class TestDebugTraces:
    def test_posted_query_findable_by_trace_id(self, served):
        _, base = served
        _, _, body = _post(
            base + "/query",
            {"policy": "nurse", "query": "//patient", "document": "hospital"},
        )
        status, _, payload = _get(
            base + "/debug/traces?trace_id=" + body["trace_id"]
        )
        assert status == 200
        assert payload["enabled"]
        assert len(payload["traces"]) == 1
        trace = payload["traces"][0]
        assert trace["trace_id"] == body["trace_id"]
        assert trace["spans"]["name"] == "request"
        # the root span carries the query's workload fingerprint so a
        # trace can be joined to its /debug/workload entry
        assert trace["fingerprint"]
        _, _, workload = _get(base + "/debug/workload?tenant=nurse")
        digests = {
            entry["fingerprint"]
            for entry in workload["tenants"]["nurse"]["top"]
        }
        assert trace["fingerprint"] in digests

    def test_unknown_trace_id_is_empty_not_error(self, served):
        _, base = served
        status, _, payload = _get(
            base + "/debug/traces?trace_id=" + "0" * 32
        )
        assert status == 200
        assert payload["traces"] == []

    def test_listing_with_filters(self, served):
        _, base = served
        _post(
            base + "/query",
            {
                "policy": "nurse",
                "query": "//patient",
                "document": "hospital",
                "tenant": "ward2",
            },
        )
        status, _, payload = _get(
            base + "/debug/traces?tenant=ward2&n=1"
        )
        assert status == 200
        assert payload["stats"]["recorded"] >= 1
        assert len(payload["traces"]) == 1
        assert payload["traces"][0]["tenant"] == "ward2"

    def test_bad_n_parameter_falls_back_to_default(self, served):
        _, base = served
        status, _, payload = _get(base + "/debug/traces?n=bogus")
        assert status == 200
        assert "traces" in payload


class TestDebugSLO:
    def test_slo_payload_has_burn_windows(self, served):
        _, base = served
        _post(
            base + "/query",
            {"policy": "nurse", "query": "//patient", "document": "hospital"},
        )
        status, _, payload = _get(base + "/debug/slo")
        assert status == 200
        assert payload["enabled"]
        assert payload["objective"]["target"] == pytest.approx(0.99)
        tenant = payload["tenants"]["nurse"]
        assert tenant["requests"] >= 1
        assert set(tenant["fast"]) == {
            "window_seconds",
            "requests",
            "bad",
            "bad_fraction",
            "burn_rate",
        }


class TestRouting:
    def test_unknown_path_is_404(self, served):
        _, base = served
        status, _, body = _get(base + "/debug/nope")
        assert status == 404
        assert not body["ok"]

    def test_metrics_includes_labeled_serving_series(self, served):
        server, base = served
        from repro.obs.metrics import enable_metrics, metrics_registry

        enable_metrics()
        try:
            _post(
                base + "/query",
                {
                    "policy": "nurse",
                    "query": "//patient",
                    "document": "hospital",
                },
            )
            with urllib.request.urlopen(
                base + "/metrics", timeout=10
            ) as reply:
                text = reply.read().decode("utf-8")
            assert "repro_serving_latency_seconds_bucket{" in text
            assert 'repro_slo_requests_total{tenant="nurse"}' in text
        finally:
            from repro.obs.metrics import disable_metrics

            disable_metrics()
            metrics_registry().reset()


class TestDebugWorkload:
    def test_served_query_shows_up_in_workload(self, served):
        _, base = served
        _post(
            base + "/query",
            {"policy": "nurse", "query": "//patient", "document": "hospital"},
        )
        status, _, payload = _get(base + "/debug/workload")
        assert status == 200
        assert payload["enabled"]
        assert payload["capacity"] >= 1
        bucket = payload["tenants"]["nurse"]
        assert bucket["queries"] >= 1
        entry = bucket["top"][0]
        assert set(entry) >= {
            "fingerprint",
            "shape",
            "count",
            "p50_ms",
            "p95_ms",
            "cache_hit_ratio",
        }

    def test_tenant_and_n_filters(self, served):
        _, base = served
        for query in ("//patient", "//patient/name", "//patient/parent"):
            _post(
                base + "/query",
                {"policy": "nurse", "query": query, "document": "hospital"},
            )
        status, _, payload = _get(base + "/debug/workload?tenant=nurse&n=1")
        assert status == 200
        assert list(payload["tenants"]) == ["nurse"]
        bucket = payload["tenants"]["nurse"]
        assert len(bucket["top"]) == 1
        assert bucket["fingerprints"] >= 3
        status, _, missing = _get(base + "/debug/workload?tenant=nobody")
        assert status == 200
        assert missing["tenants"] == {}

    def test_failed_query_counted(self, served):
        _, base = served
        status, _, body = _post(
            base + "/query",
            {
                "policy": "nurse",
                "query": "//patient[",
                "document": "hospital",
            },
        )
        assert status == 400
        _, _, payload = _get(base + "/debug/workload?tenant=nurse")
        assert payload["tenants"]["nurse"]["errors"] >= 1


class TestDebugCachez:
    def test_cache_report_per_engine(self, served):
        _, base = served
        _post(
            base + "/query",
            {"policy": "nurse", "query": "//patient", "document": "hospital"},
        )
        status, _, payload = _get(base + "/debug/cachez")
        assert status == 200
        report = payload["engines"]["hospital"]
        assert report["plan_cache"]["entries"] >= 1
        assert report["plan_cache"]["bytes"] > 0
        assert report["plan_cache"]["distinct_fingerprints"] >= 1
        assert {
            "plan_cache",
            "node_tables",
            "accessibility_columns",
            "canary_oracle_views",
            "total_bytes",
        } <= set(report)
        assert payload["total_bytes"] >= report["total_bytes"]


class TestDebugVars:
    def test_vars_payload(self, served):
        server, base = served
        status, _, payload = _get(base + "/debug/vars")
        assert status == 200
        import repro

        assert payload["version"] == repro.__version__
        assert payload["uptime_seconds"] >= 0
        assert "workers" not in payload
        assert payload["documents"] == ["hospital"]
        assert payload["tracing"] is True
        assert payload["profiling"] is True
        assert payload["queue_depth"] == server.admission.queue_depth()
        assert isinstance(payload["admission"], dict)
        assert payload["cache_bytes"] >= 0
        assert payload["workload"]["capacity"] >= 1


class TestWorkloadUnderConcurrentReplay:
    def test_top_k_under_sixteen_thread_mixed_tenant_replay(self):
        """The acceptance scenario: a 16-client mixed-tenant replay,
        then ``/debug/workload?tenant=X&n=K`` serves bounded top-K."""
        from repro.serving.replay import (
            mixed_workload,
            replay,
            standard_catalog,
        )

        catalog = standard_catalog(seed=0)
        requests = mixed_workload(repetitions=2, seed=0)
        with QueryServer(catalog) as server:
            httpd = make_http_server(server, port=0)
            thread = threading.Thread(target=httpd.serve_forever, daemon=True)
            thread.start()
            base = "http://127.0.0.1:%d" % httpd.server_address[1]
            try:
                stats = replay(server, requests, clients=16)
                assert not stats["errors"], stats["errors"]
                status, _, payload = _get(base + "/debug/workload")
                tenants = set(payload["tenants"])
                for tenant in sorted(tenants):
                    status, _, top2 = _get(
                        base + "/debug/workload?tenant=%s&n=2" % tenant
                    )
                    assert status == 200
                    bucket = top2["tenants"][tenant]
                    assert len(bucket["top"]) <= 2
                    assert (
                        bucket["fingerprints"] <= payload["capacity"]
                    )
                    for entry in bucket["top"]:
                        assert entry["count"] >= 1
                        assert entry["p95_ms"] >= entry["p50_ms"] >= 0
                        assert 0.0 <= entry["cache_hit_ratio"] <= 1.0
            finally:
                httpd.shutdown()
                httpd.server_close()
                thread.join(timeout=5)
        assert status == 200
        assert len(tenants) >= 2
        total = sum(
            bucket["queries"] for bucket in payload["tenants"].values()
        )
        assert total == len(requests)


class TestReadiness:
    def test_healthz_and_readyz_on_live_server(self, served):
        _, base = served
        status, _, body = _get(base + "/healthz")
        assert status == 200 and body["ok"]
        status, _, payload = _get(base + "/readyz")
        assert status == 200
        assert payload["ready"] and payload["reasons"] == []
        assert payload["documents"] == ["hospital"]

    def test_readyz_flips_503_while_draining(self):
        dtd = hospital_dtd()
        engine = SecureQueryEngine(dtd)
        engine.register_policy("nurse", nurse_spec(dtd), wardNo="2")
        catalog = EngineCatalog().add(
            "hospital", engine, hospital_document(seed=7, max_branch=4)
        )
        server = QueryServer(catalog).start()
        httpd = make_http_server(server, port=0)
        thread = threading.Thread(target=httpd.serve_forever, daemon=True)
        thread.start()
        base = "http://127.0.0.1:%d" % httpd.server_address[1]
        try:
            status, _, _ = _get(base + "/readyz")
            assert status == 200
            server.begin_drain()
            status, _, payload = _get(base + "/readyz")
            assert status == 503
            assert "draining" in payload["reasons"]
            # liveness stays green mid-drain
            status, _, _ = _get(base + "/healthz")
            assert status == 200
            # mid-drain queries are typed rejections, not hangs
            status, headers, body = _post(
                base + "/query",
                {
                    "policy": "nurse",
                    "query": "//patient",
                    "document": "hospital",
                },
            )
            assert status == 429
            assert body["error_code"] == "E_ADMISSION"
            assert "Retry-After" in headers
        finally:
            httpd.shutdown()
            httpd.server_close()
            thread.join(timeout=5)
            server.drain(deadline_seconds=5.0)


class TestDebugResilience:
    def test_payload_shape(self, served):
        _, base = served
        status, _, payload = _get(base + "/debug/resilience")
        assert status == 200
        assert set(payload) == {"shedding", "shed", "drain"}
        assert set(payload["shed"]) == {"critical", "default", "sheddable"}
        assert payload["drain"]["draining"] is False


class _GatedServer:
    """An HTTP server whose single admission slot the test occupies."""

    def __init__(self, overload=None, queue_deadline_seconds=5.0,
                 max_queue_depth=4):
        from repro.serving.admission import (
            AdmissionController,
            TenantPolicy,
        )

        dtd = hospital_dtd()
        engine = SecureQueryEngine(dtd)
        engine.register_policy("nurse", nurse_spec(dtd), wardNo="2")
        catalog = EngineCatalog().add(
            "hospital", engine, hospital_document(seed=7, max_branch=4)
        )
        self.admission = AdmissionController(
            TenantPolicy(
                max_concurrent=1,
                max_queue_depth=max_queue_depth,
                queue_deadline_seconds=queue_deadline_seconds,
            ),
            overload=overload,
        )
        self.server = QueryServer(
            catalog, admission=self.admission
        ).start()
        self.httpd = make_http_server(self.server, port=0)
        self.thread = threading.Thread(
            target=self.httpd.serve_forever, daemon=True
        )
        self.thread.start()
        self.base = "http://127.0.0.1:%d" % self.httpd.server_address[1]
        self._release = threading.Event()
        self._entered = threading.Event()
        self._holder = threading.Thread(target=self._hold)
        self._holder.start()
        assert self._entered.wait(timeout=5)

    def _hold(self):
        with self.admission.admit("nurse"):
            self._entered.set()
            self._release.wait(timeout=30)

    def close(self):
        self._release.set()
        self._holder.join()
        self.httpd.shutdown()
        self.httpd.server_close()
        self.thread.join(timeout=5)
        self.server.stop()


class TestBackPressureStatusMapping:
    def post(self, gated, payload, headers=None):
        return _post(gated.base + "/query", payload, headers=headers)

    def test_queue_full_maps_to_429_with_retry_after(self):
        gated = _GatedServer(max_queue_depth=0)
        try:
            status, headers, body = self.post(
                gated,
                {
                    "policy": "nurse",
                    "query": "//patient",
                    "document": "hospital",
                },
            )
            assert status == 429
            assert not body["ok"]
            assert body["error_code"] == "E_ADMISSION"
            assert int(headers["Retry-After"]) >= 1
        finally:
            gated.close()

    def test_queue_deadline_maps_to_504(self):
        gated = _GatedServer(queue_deadline_seconds=0.05)
        try:
            status, headers, body = self.post(
                gated,
                {
                    "policy": "nurse",
                    "query": "//patient",
                    "document": "hospital",
                },
            )
            assert status == 504
            assert body["error_code"] == "E_DEADLINE"
            assert "Retry-After" not in headers
        finally:
            gated.close()

    def test_shed_maps_to_429_with_retry_after(self):
        from repro.serving.resilience import OverloadDetector

        detector = OverloadDetector(alpha=1.0)
        gated = _GatedServer(overload=detector)
        try:
            detector.observe(1.0)
            status, headers, body = self.post(
                gated,
                {
                    "policy": "nurse",
                    "query": "//patient",
                    "document": "hospital",
                    "criticality": "sheddable",
                },
            )
            assert status == 429
            assert body["error_code"] == "E_SHED"
            assert body["retry_after_seconds"] > 0
            assert int(headers["Retry-After"]) >= 1
            # the shed shows up in the resilience debug payload
            _, _, payload = _get(gated.base + "/debug/resilience")
            assert payload["shed"]["sheddable"] >= 1
        finally:
            gated.close()

    def test_criticality_header_sets_shedding_class(self):
        from repro.serving.resilience import OverloadDetector

        detector = OverloadDetector(alpha=1.0)
        gated = _GatedServer(overload=detector)
        try:
            detector.observe(1.0)
            status, _, body = self.post(
                gated,
                {
                    "policy": "nurse",
                    "query": "//patient",
                    "document": "hospital",
                },
                headers={"X-Repro-Criticality": "sheddable"},
            )
            assert status == 429
            assert body["error_code"] == "E_SHED"
        finally:
            gated.close()

    def test_body_criticality_wins_over_header(self):
        from repro.serving.resilience import OverloadDetector

        detector = OverloadDetector(alpha=1.0)
        gated = _GatedServer(queue_deadline_seconds=0.05, overload=detector)
        try:
            detector.observe(1.0)
            # body says critical -> never shed, rides to its deadline
            status, _, body = self.post(
                gated,
                {
                    "policy": "nurse",
                    "query": "//patient",
                    "document": "hospital",
                    "criticality": "critical",
                },
                headers={"X-Repro-Criticality": "sheddable"},
            )
            assert status == 504
            assert body["error_code"] == "E_DEADLINE"
        finally:
            gated.close()


class TestDisabledTracing:
    def test_debug_endpoints_report_disabled(self):
        dtd = hospital_dtd()
        engine = SecureQueryEngine(dtd)
        engine.register_policy("nurse", nurse_spec(dtd), wardNo="2")
        catalog = EngineCatalog().add(
            "hospital", engine, hospital_document(seed=7, max_branch=4)
        )
        with QueryServer(catalog, tracing=False) as server:
            httpd = make_http_server(server, port=0)
            thread = threading.Thread(target=httpd.serve_forever, daemon=True)
            thread.start()
            base = "http://127.0.0.1:%d" % httpd.server_address[1]
            try:
                _, _, traces = _get(base + "/debug/traces")
                _, _, by_id = _get(
                    base + "/debug/traces?trace_id=" + "0" * 32
                )
                _, _, slo = _get(base + "/debug/slo")
            finally:
                httpd.shutdown()
                httpd.server_close()
                thread.join(timeout=5)
        assert traces == {"enabled": False, "stats": {}, "traces": []}
        assert by_id == {"enabled": False, "traces": []}
        assert slo["enabled"] is False
