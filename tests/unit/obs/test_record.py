"""One QueryRecord per finished query, on every path, and the one
fan-out every consumer reads it from."""

import threading

import pytest

from repro.core.engine import SecureQueryEngine
from repro.errors import QueryRejectedError
from repro.obs import enable_metrics, disable_metrics, metrics_registry
from repro.obs.events import RingBufferSink
from repro.obs.flight import FlightRecorder
from repro.obs.record import QueryRecord, RecordFanout
from repro.obs.trace import Tracer
from repro.serving.admission import AdmissionController, TenantPolicy
from repro.serving.protocol import QueryRequest
from repro.serving.server import EngineCatalog, QueryServer
from repro.workloads.adex import adex_document, adex_engine
from repro.workloads.hospital import hospital_document, hospital_dtd, nurse_spec

#: Two answers and one strict-mode denial; served paths add one
#: admission rejection (tenant GATED holds no free slot).
QUERIES = ["//patient/name", "//patient//bill", "//clinicalTrial"]
GATED = "gated"
AUDIT_KINDS = ("query", "denial", "error")


class TestQueryRecord:
    def test_is_immutable(self):
        record = QueryRecord(policy="nurse")
        with pytest.raises(AttributeError):
            record.policy = "doctor"
        with pytest.raises(AttributeError):
            del record.policy

    def test_rejects_unknown_fields(self):
        with pytest.raises(TypeError):
            QueryRecord(latency=1.0)

    def test_outcome_properties(self):
        assert QueryRecord().ok
        denied = QueryRecord(error_code=QueryRejectedError.code)
        assert denied.denied and not denied.ok
        assert not QueryRecord(error_code="E_ADMISSION").denied

    def test_failed_query_is_fingerprinted_from_its_text(self):
        record = QueryRecord.finished(
            "nurse",
            '//patient[wardNo = "1"]',
            error=QueryRejectedError("no", label="patient"),
        )
        same_shape = QueryRecord.finished(
            "nurse", '//patient[wardNo = "7"]', error=ValueError("x")
        )
        assert record.fingerprint == same_shape.fingerprint
        assert (record.error_code, record.denied_label) == (
            "E_LABEL_DENIED",
            "patient",
        )
        assert same_shape.error_code == "E_UNKNOWN"


class TestRecordFanout:
    def test_consumers_run_in_order_then_extras(self):
        seen = []
        fanout = RecordFanout([lambda r: seen.append("a")])
        fanout.subscribe(lambda r: seen.append("b"))
        fanout.publish(QueryRecord(), [lambda r: seen.append("c")])
        assert seen == ["a", "b", "c"]

    def test_failing_consumer_is_counted_and_skipped(self):
        seen = []

        def broken(record):
            raise RuntimeError("boom")

        fanout = RecordFanout([broken, seen.append])
        record = QueryRecord()
        registry = metrics_registry()
        registry.reset()
        enable_metrics()
        try:
            fanout.publish(record)
        finally:
            disable_metrics()
        assert seen == [record]
        assert registry.snapshot()["counters"]["record.failures"] == 1


def _strict_engine():
    dtd = hospital_dtd()
    engine = SecureQueryEngine(dtd, strict=True)
    engine.register_policy("nurse", nurse_spec(dtd), wardNo="2")
    return engine


class _Gate:
    """Holds the only admission slot of tenant GATED, so its requests
    are rejected at admission (no queue), deterministically."""

    def __init__(self, admission):
        self._release = threading.Event()
        entered = threading.Event()

        def hold():
            with admission.admit(GATED):
                entered.set()
                self._release.wait(timeout=30)

        self._holder = threading.Thread(target=hold)
        self._holder.start()
        assert entered.wait(timeout=5)

    def close(self):
        self._release.set()
        self._holder.join()


def _requests():
    requests = [
        QueryRequest(policy="nurse", query=text, document="hospital")
        for text in QUERIES
    ]
    requests.append(
        QueryRequest(
            policy="nurse",
            query=QUERIES[0],
            document="hospital",
            tenant=GATED,
        )
    )
    return requests


def _run_library(path, engine, document):
    """The library paths: direct query and execute_request."""
    if path == "direct":
        for text in QUERIES:
            try:
                engine.query("nurse", text, document)
            except QueryRejectedError:
                pass
    else:
        for request in _requests()[:3]:
            engine.execute_request(request, document)


def _run_served(path, server):
    if path == "server":
        return [server.query(request) for request in _requests()]
    import json
    import urllib.error
    import urllib.request

    from repro.serving.httpd import make_http_server

    httpd = make_http_server(server, port=0)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    codes = []
    try:
        base = "http://127.0.0.1:%d/query" % httpd.server_address[1]
        for request in _requests():
            body = json.dumps(request.to_dict()).encode("utf-8")
            post = urllib.request.Request(
                base,
                data=body,
                headers={"Content-Type": "application/json"},
                method="POST",
            )
            try:
                with urllib.request.urlopen(post, timeout=10) as reply:
                    codes.append(json.loads(reply.read())["error_code"])
            except urllib.error.HTTPError as error:
                codes.append(json.loads(error.read())["error_code"])
    finally:
        httpd.shutdown()
        httpd.server_close()
        thread.join(timeout=5)
    return codes


@pytest.mark.parametrize(
    "path", ["direct", "execute_request", "server", "http"]
)
def test_one_record_per_finished_query(path):
    engine = _strict_engine()
    document = hospital_document(seed=7, max_branch=4)
    ring = engine.add_sink(RingBufferSink(capacity=256))
    received = []
    engine.records.subscribe(received.append)
    if path in ("direct", "execute_request"):
        profiler = engine.enable_workload_profiler()
        _run_library(path, engine, document)
        expected = len(QUERIES)
        codes = [record.error_code for record in received]
        assert codes.count("E_LABEL_DENIED") == 1
        assert len(received) == expected
        assert profiler.stats()["queries"] == expected
    else:
        admission = AdmissionController()
        admission.set_policy(
            GATED, TenantPolicy(max_concurrent=1, max_queue_depth=0)
        )
        catalog = EngineCatalog().add("hospital", engine, document)
        gate = _Gate(admission)
        try:
            with QueryServer(
                catalog,
                admission=admission,
                flight=FlightRecorder(capacity=64, tail_capacity=64),
            ) as server:
                responses = _run_served(path, server)
        finally:
            gate.close()
        expected = len(QUERIES) + 1
        codes = sorted(record.error_code for record in received)
        assert codes == ["", "", "E_ADMISSION", "E_LABEL_DENIED"]
        assert len(responses) == expected
        assert server.workload.stats()["queries"] == expected
        slo = server.slo.snapshot()["tenants"]
        assert sum(tenant["requests"] for tenant in slo.values()) == expected
        assert server.flight.stats()["recorded"] == expected
        # the flight recorder keeps the very object the subscriber got
        for record in received:
            assert record.served
            assert server.flight.get(record.trace_id) is record
    audited = [event for event in ring.events() if event.kind in AUDIT_KINDS]
    assert len(audited) == expected
    assert len({id(record) for record in received}) == expected


@pytest.mark.parametrize("case", ["ghost", "drained"])
def test_one_record_for_a_request_that_never_reaches_an_engine(case):
    """An unresolved document ref and a call after ``drain()`` finish
    in the server, not the engine: each still yields exactly one
    record, seen by the metrics registry, the SLO tracker and the
    flight recorder (and no engine consumer, having no engine)."""
    engine = _strict_engine()
    received = []
    engine.records.subscribe(received.append)
    catalog = EngineCatalog().add(
        "hospital", engine, hospital_document(seed=7, max_branch=4)
    )
    server = QueryServer(
        catalog, flight=FlightRecorder(capacity=8, tail_capacity=8)
    ).start()
    registry = metrics_registry()
    registry.reset()
    enable_metrics()
    try:
        if case == "ghost":
            request = QueryRequest(
                policy="nurse", query="//patient/name", document="ghost"
            )
            response = server.query(request)
            expected_code = "E_SECURITY"
        else:
            server.drain(deadline_seconds=5.0)
            request = QueryRequest(
                policy="nurse", query="//patient/name", document="hospital"
            )
            response = server.query(request)
            expected_code = "E_ADMISSION"
        counters = registry.snapshot()["counters"]
    finally:
        disable_metrics()
        server.stop()
    assert response.error_code == expected_code
    assert received == []
    assert server.flight.stats()["recorded"] == 1
    record = server.flight.get(response.trace_id)
    assert record is not None and record.served
    assert record.error_code == expected_code
    assert record.tenant == "nurse" and record.document == request.document
    tenants = server.slo.snapshot()["tenants"]
    assert list(tenants) == ["nurse"]
    assert tenants["nurse"]["requests"] == 1
    assert counters.get("serving.errors") == 1
    assert counters.get("serving.errors.%s" % expected_code) == 1


def test_engine_leaves_the_callers_span_alone():
    """The record carries fingerprint and canary verdict: the engine
    writes neither onto the caller's root span."""
    engine = _strict_engine()
    engine.enable_canary(1.0)
    document = hospital_document(seed=7, max_branch=4)
    tracer = Tracer()
    request = QueryRequest(policy="nurse", query="//patient/name")
    with tracer.span("request") as root:
        engine.execute_request(request, document, tracer=tracer)
    assert root.attributes == {}


class TestProjectStage:
    @pytest.fixture(scope="class")
    def adex(self):
        return adex_engine(), adex_document(seed=0, buyers=8, ads=16)

    def test_projection_is_its_own_stage_inside_evaluate(self, adex):
        engine, document = adex
        for _ in range(2):  # cold, then a warm plan-cache hit
            result = engine.query(
                "real-estate-buyer", "//buyer-info/contact-info", document
            )
            timings = result.report.timings
            assert len(result) > 0
            assert 0 < timings["project"] <= timings["evaluate"]
        assert result.report.cache_hit

    def test_no_project_stage_without_projection(self, adex):
        # text() answers are strings: no result is projected, so the
        # stage reads zero
        engine, document = adex
        result = engine.query(
            "real-estate-buyer", "//buyer-info/contact-info//text()", document
        )
        assert len(result) > 0
        assert all(isinstance(value, str) for value in result)
        assert result.report.timings["project"] == 0.0

    def test_registry_exports_project_seconds_on_warm_hits(self, adex):
        engine, document = adex
        registry = metrics_registry()
        registry.reset()
        enable_metrics()
        try:
            for _ in range(3):
                engine.query(
                    "real-estate-buyer", "//buyer-info/contact-info", document
                )
        finally:
            disable_metrics()
        histograms = registry.snapshot()["histograms"]
        assert histograms["stage.project_seconds"]["count"] == 3
        assert histograms["stage.evaluate_seconds"]["count"] == 3


def test_one_materialization_per_policy_and_document(monkeypatch):
    """The canary's checks of N queries share one view build, and no
    query materializes a view of its own."""
    import importlib

    module = importlib.import_module("repro.core.materialize")
    calls = []
    real = module.materialize

    def counting(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(module, "materialize", counting)
    engine = _strict_engine()
    canary = engine.enable_canary(1.0)
    document = hospital_document(seed=7, max_branch=4)
    reports = [
        engine.query("nurse", text, document).report
        for text in QUERIES[:2] * 3
    ]
    assert calls == [document]
    assert canary.checks == 6 and canary.view_builds == 1
    assert all("materialize" not in report.timings for report in reports)
