"""The QueryServer: catalog resolution, the never-raises contract,
admission as the only queue, budget independence and audit parity."""

import threading
from types import SimpleNamespace

import pytest

from repro.core.engine import SecureQueryEngine
from repro.core.options import ExecutionOptions
from repro.obs.events import RingBufferSink
from repro.obs.flight import FlightRecorder
from repro.obs.slo import SLOTracker
from repro.obs.trace import Tracer
from repro.robustness import faults
from repro.robustness.faults import FaultPlan, FaultSpec
from repro.robustness.governor import QueryLimits
from repro.serving.admission import AdmissionController, TenantPolicy
from repro.serving.protocol import QueryRequest, QueryResponse
from repro.serving import server as server_module
from repro.serving.server import EngineCatalog, QueryServer
from repro.workloads.hospital import (
    doctor_spec,
    hospital_document,
    hospital_dtd,
    nurse_spec,
)
from tests.serving_calls import Calls, wait_until


@pytest.fixture(scope="module")
def engine():
    dtd = hospital_dtd()
    built = SecureQueryEngine(dtd)
    built.register_policy("nurse", nurse_spec(dtd), wardNo="2")
    return built


@pytest.fixture(scope="module")
def document():
    return hospital_document(seed=7, max_branch=4)


@pytest.fixture()
def catalog(engine, document):
    return EngineCatalog().add("hospital", engine, document)


class TestEngineCatalog:
    def test_duplicate_ref_rejected(self, engine, document):
        from repro.errors import SecurityError

        catalog = EngineCatalog().add("d", engine, document)
        with pytest.raises(SecurityError):
            catalog.add("d", engine, document)

    def test_unknown_ref_raises(self, catalog):
        from repro.errors import SecurityError

        with pytest.raises(SecurityError):
            catalog.resolve("nope")
        assert "nope" not in catalog
        assert catalog.refs() == ["hospital"]


class TestQueryServer:
    def test_answers_match_direct_query(self, catalog, engine, document):
        from repro.xmlmodel.serialize import serialize

        texts = ["//patient/name", "//patient//bill", "//patient/name"] * 4
        direct = {
            text: [
                value if isinstance(value, str) else serialize(value)
                for value in engine.query("nurse", text, document)
            ]
            for text in texts
        }
        with QueryServer(catalog) as server:
            responses = Calls(
                server,
                [
                    QueryRequest(
                        policy="nurse",
                        query=text,
                        document="hospital",
                        request_id=str(index),
                    )
                    for index, text in enumerate(texts)
                ],
            ).join()
        for text, response in zip(texts, responses):
            assert response.ok
            assert list(response.results) == direct[text]

    def test_unknown_document_is_an_error_response(self, catalog):
        with QueryServer(catalog) as server:
            response = server.query(
                QueryRequest(policy="nurse", query="//a", document="ghost")
            )
        assert not response.ok
        assert response.error_code == "E_SECURITY"

    def test_submit_never_raises_after_stop(self, catalog):
        server = QueryServer(catalog).start()
        server.stop()
        request = QueryRequest(policy="nurse", query="//a", document="hospital")
        for response in (server.submit(request), server.query(request)):
            assert not response.ok
            assert response.error_code == "E_ADMISSION"
            assert "stopped" in response.error_message

    def test_query_before_start_is_refused(self, catalog):
        """A call before ``start()`` is refused like ``/readyz``
        reports it: ``E_ADMISSION``, "server is not started", with a
        retry hint, and one record."""
        server = QueryServer(catalog)
        response = server.query(
            QueryRequest(policy="nurse", query="//a", document="hospital")
        )
        assert not response.ok
        assert response.error_code == "E_ADMISSION"
        assert "not started" in response.error_message
        assert response.retry_after_seconds is not None
        assert server.slo.snapshot()["tenants"]["nurse"]["requests"] == 1
        server.start()
        try:
            assert server.query(
                QueryRequest(
                    policy="nurse", query="//patient", document="hospital"
                )
            ).ok
        finally:
            server.stop()

    def test_admission_rejection_surfaces_and_audits(self, catalog, engine):
        sink = engine.add_sink(RingBufferSink())
        try:
            admission = AdmissionController(
                TenantPolicy(
                    max_concurrent=1,
                    max_queue_depth=0,
                    queue_deadline_seconds=5.0,
                )
            )
            # One slot, zero queue depth: racing many same-tenant
            # requests from their own threads must reject some at the
            # gate.
            with QueryServer(
                catalog, admission=admission
            ) as server:
                responses = Calls(
                    server,
                    [
                        QueryRequest(
                            policy="nurse",
                            query="//patient//bill",
                            document="hospital",
                            tenant="hammer",
                        )
                        for _ in range(13)
                    ],
                ).join()
            codes = {r.error_code for r in responses if not r.ok}
            assert all(
                code in {"E_ADMISSION", "E_DEADLINE"} for code in codes
            )
            ok_count = sum(1 for r in responses if r.ok)
            assert ok_count >= 1
            if codes:  # every serving failure has an audit ErrorEvent
                audited = {
                    event.code for event in sink.events(kind="error")
                }
                assert codes <= audited
        finally:
            engine.remove_sink(sink)

    def test_tenant_isolation_under_flood(self, catalog):
        """A flooding tenant gets rejections; a polite tenant's
        requests all succeed."""
        admission = AdmissionController(
            TenantPolicy(max_concurrent=2, max_queue_depth=64)
        )
        admission.set_policy(
            "flood",
            TenantPolicy(
                max_concurrent=1,
                max_queue_depth=1,
                queue_deadline_seconds=10.0,
            ),
        )
        with QueryServer(
            catalog, admission=admission
        ) as server:
            flood = Calls(
                server,
                [
                    QueryRequest(
                        policy="nurse",
                        query="//patient//bill",
                        document="hospital",
                        tenant="flood",
                    )
                    for _ in range(16)
                ],
            )
            polite = Calls(
                server,
                [
                    QueryRequest(
                        policy="nurse",
                        query="//patient/name",
                        document="hospital",
                        tenant="polite",
                    )
                    for _ in range(8)
                ],
            )
            polite_responses = polite.join()
            flood_responses = flood.join()
        assert all(r.ok for r in polite_responses)
        # the flooder is bounded: not everything gets through at once
        flood_codes = {r.error_code for r in flood_responses if not r.ok}
        assert flood_codes <= {"E_ADMISSION", "E_DEADLINE"}

    @pytest.mark.parametrize("neighbour", ["nurse", "doctor"])
    def test_budget_verdict_ignores_neighbouring_requests(
        self, document, neighbour, monkeypatch
    ):
        """A request's budget verdict and visit count are its own: an
        unlimited request running beside it (same document, same
        query, same or another policy) must not lend it any work."""
        dtd = hospital_dtd()
        engine = SecureQueryEngine(dtd)
        engine.register_policy("nurse", nurse_spec(dtd), wardNo="2")
        engine.register_policy("doctor", doctor_spec(dtd))
        catalog = EngineCatalog().add("hospital", engine, document)
        text = "//patient/name"
        solo = engine.query("nurse", text, document).report.visits
        assert solo > 1
        limited = ExecutionOptions(limits=QueryLimits(max_visits=solo - 1))
        requests = [
            QueryRequest(policy=neighbour, query=text, document="hospital"),
            QueryRequest(
                policy="nurse",
                query=text,
                document="hospital",
                options=limited,
            ),
            QueryRequest(policy="nurse", query=text, document="hospital"),
        ]
        # all three are admitted, then run side by side once released
        arrived = threading.Barrier(len(requests))
        real_trip = faults.trip

        def trip(site):
            if site == "serving.execute":
                arrived.wait(timeout=30)
            real_trip(site)

        monkeypatch.setattr(server_module, "fault_trip", trip)
        with QueryServer(catalog) as server:
            unlimited, budgeted, again = Calls(server, requests).join()
        assert unlimited.ok
        assert not budgeted.ok
        assert budgeted.error_code == "E_BUDGET"
        assert again.ok
        assert again.report["visits"] == solo

    def test_no_worker_pool(self, catalog):
        # each request runs on its caller's thread since 10.0
        with pytest.raises(TypeError):
            QueryServer(catalog, workers=4)
        server = QueryServer(catalog).start()
        request = QueryRequest(
            policy="nurse", query="//patient", document="hospital"
        )
        # submit() answers on the calling thread: a response, no future
        response = server.submit(request)
        assert isinstance(response, QueryResponse) and response.ok
        assert response.results == server.query(request).results
        server.stop()
        with pytest.raises(TypeError):
            server.query(
                QueryRequest(policy="nurse", query="//a", document="hospital"),
                timeout=5,
            )

    def test_response_is_protocol_type(self, catalog):
        with QueryServer(catalog) as server:
            response = server.query(
                QueryRequest(
                    policy="nurse", query="//patient", document="hospital"
                )
            )
        assert isinstance(response, QueryResponse)
        assert QueryResponse.from_dict(response.to_dict()) == response


def _hold_latency_faults(monkeypatch, release, unless=None):
    """Make a latency fault hold its call until ``release`` is set
    (a thread ``unless`` names passes straight through)."""

    def sleep(seconds):
        if threading.current_thread() is not unless:
            release.wait(timeout=30)

    monkeypatch.setattr(faults, "time", SimpleNamespace(sleep=sleep))
    return FaultPlan(
        FaultSpec(
            "serving.execute", kind="latency", latency_seconds=1.0, every=1
        )
    )


class TestAdmissionIsTheOnlyQueue:
    """Each call waits on its own thread, and only in its tenant's
    admission queue."""

    def request(self, tenant):
        return QueryRequest(
            policy="nurse",
            query="//patient/name",
            document="hospital",
            tenant=tenant,
        )

    def test_flooding_tenant_is_held_to_its_bounds(
        self, catalog, monkeypatch
    ):
        """Default bounds, 40 tenant-A calls held in execution: exactly
        ``max_concurrent + max_queue_depth`` of them get in, the rest
        are rejected at once, and a tenant-B call is answered while A
        holds every one of its slots."""
        bounds = TenantPolicy()
        held = bounds.max_concurrent + bounds.max_queue_depth
        admission = AdmissionController()
        release = threading.Event()
        plan = _hold_latency_faults(
            monkeypatch, release, unless=threading.current_thread()
        )
        with plan, QueryServer(catalog, admission=admission) as server:
            flood = Calls(server, [self.request("A") for _ in range(40)])
            try:
                wait_until(lambda: len(flood.answered()) == 40 - held)
                assert admission.running("A") == bounds.max_concurrent
                assert admission.queue_depth("A") == bounds.max_queue_depth
                polite = server.query(self.request("B"))
                assert polite.ok
                assert admission.running("A") == bounds.max_concurrent
            finally:
                release.set()
            responses = flood.join()
        rejected = [r.error_code for r in responses if not r.ok]
        assert rejected == ["E_ADMISSION"] * (40 - held)
        assert sum(1 for r in responses if r.ok) == held

    def test_drain_leaves_no_caller_waiting_for_a_slot(
        self, catalog, monkeypatch
    ):
        """One slot, waiters with no queue deadline: ``drain`` past its
        deadline rejects every waiter, counts them, and leaves nothing
        unresolved."""
        admission = AdmissionController(
            TenantPolicy(max_concurrent=1, max_queue_depth=16)
        )
        server = QueryServer(catalog, admission=admission).start()
        release = threading.Event()
        close = admission.close

        def close_then_release(reason="stopped"):
            # the running call finishes once admission is closed
            woken = close(reason)
            release.set()
            return woken

        monkeypatch.setattr(admission, "close", close_then_release)
        waiters = 5
        with _hold_latency_faults(monkeypatch, release):
            calls = Calls(
                server, [self.request("A") for _ in range(waiters + 1)]
            )
            try:
                wait_until(
                    lambda: admission.running("A") == 1
                    and admission.queue_depth("A") == waiters
                )
                report = server.drain(deadline_seconds=0.2)
            finally:
                release.set()
            responses = calls.join()
        assert sum(1 for r in responses if r.ok) == 1
        refused = [r for r in responses if not r.ok]
        assert [r.error_code for r in refused] == ["E_ADMISSION"] * waiters
        assert all("draining" in r.error_message for r in refused)
        assert report["rejected"] == waiters
        assert report["unresolved"] == 0
        assert admission.running() == 0 and admission.queue_depth() == 0
        # closed admission refuses later calls too
        assert server.query(self.request("A")).error_code == "E_ADMISSION"


class TestRequestTracing:
    def _span_names(self, span, out=None):
        out = [] if out is None else out
        out.append(span["name"])
        for child in span.get("children", ()):
            self._span_names(child, out)
        return out

    def test_trace_id_minted_and_echoed(self, catalog):
        with QueryServer(catalog) as server:
            response = server.query(
                QueryRequest(
                    policy="nurse", query="//patient", document="hospital"
                )
            )
        assert response.ok
        assert len(response.trace_id) == 32

    def test_client_trace_id_is_adopted(self, catalog):
        with QueryServer(catalog) as server:
            response = server.query(
                QueryRequest(
                    policy="nurse",
                    query="//patient",
                    document="hospital",
                    trace_id="cafe" * 8,
                )
            )
        assert response.trace_id == "cafe" * 8

    def test_trace_findable_with_full_span_tree(self, catalog):
        from repro.obs.flight import trace_dict

        with QueryServer(catalog) as server:
            # a query no other test issues: a plan-cache hit would skip
            # the parse span and this test wants the full stage tree
            response = server.query(
                QueryRequest(
                    policy="nurse",
                    query="//patient/treatment/trId",
                    document="hospital",
                    request_id="rq-1",
                )
            )
            record = server.flight.get(response.trace_id)
        assert record is not None
        assert record.request_id == "rq-1"
        assert record.tenant == "nurse"
        names = self._span_names(trace_dict(record)["spans"])
        # queue wait and the engine stages all appear in one
        # request-rooted tree
        assert names[0] == "request"
        for expected in ("queue_wait", "query", "parse", "evaluate"):
            assert expected in names

    def test_denied_requests_always_tail_retained(self, document):
        dtd = hospital_dtd()
        strict = SecureQueryEngine(dtd, strict=True)
        strict.register_policy("nurse", nurse_spec(dtd), wardNo="2")
        catalog = EngineCatalog().add("hospital", strict, document)
        # capacity-1 reservoir: OK traffic would crowd out anything
        # sampled, but denials must survive in the tail regardless
        with QueryServer(
            catalog,
            flight=FlightRecorder(capacity=1, tail_capacity=16, seed=0),
        ) as server:
            for _ in range(5):
                server.query(
                    QueryRequest(
                        policy="nurse", query="//patient", document="hospital"
                    )
                )
            denied = server.query(
                QueryRequest(
                    policy="nurse",
                    query="//clinicalTrial",
                    document="hospital",
                )
            )
            record = server.flight.get(denied.trace_id)
        assert not denied.ok
        assert denied.error_code == "E_LABEL_DENIED"
        assert record is not None
        assert record.status == "denied"

    def test_slo_tracks_tenants(self, catalog):
        with QueryServer(catalog) as server:
            server.query(
                QueryRequest(
                    policy="nurse", query="//patient", document="hospital"
                )
            )
            payload = server.slo_payload()
        assert payload["enabled"]
        assert "nurse" in payload["tenants"]
        assert payload["tenants"]["nurse"]["requests"] == 1

    def test_tracing_disabled_is_inert(self, catalog, monkeypatch):
        spans = []
        calls = {"record": 0, "observe": 0}
        span = Tracer.span

        def counted_span(tracer, name, **attributes):
            spans.append(name)
            return span(tracer, name, **attributes)

        def counting(name, original):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(Tracer, "span", counted_span)
        monkeypatch.setattr(
            FlightRecorder, "record", counting("record", FlightRecorder.record)
        )
        monkeypatch.setattr(
            SLOTracker, "observe", counting("observe", SLOTracker.observe)
        )
        request = QueryRequest(
            policy="nurse", query="//patient", document="hospital"
        )
        with QueryServer(catalog, tracing=False) as server:
            responses = [server.query(request) for _ in range(3)]
            traces = server.trace_payload()
            slo = server.slo_payload()
        assert all(response.ok for response in responses)
        assert all(response.trace_id == "" for response in responses)
        # the engine still times its stages for the report
        assert responses[0].report["total_seconds"] > 0
        assert responses[0].report["timings"]
        assert server.flight is None and server.slo is None
        assert traces == {"enabled": False, "stats": {}, "traces": []}
        assert slo["enabled"] is False
        # no server-side span, flight record or SLO observation per
        # request; only the engine's private stage spans open
        assert spans.count("query") == 3
        assert "request" not in spans and "queue_wait" not in spans
        assert calls == {"record": 0, "observe": 0}
        # the same counters see each request once with tracing on
        del spans[:]
        with QueryServer(catalog) as server:
            for _ in range(3):
                server.query(request)
        assert spans.count("request") == spans.count("queue_wait") == 3
        assert calls == {"record": 3, "observe": 3}


class TestLifecycle:
    def request(self, **kw):
        kw.setdefault("policy", "nurse")
        kw.setdefault("query", "//patient/name")
        kw.setdefault("document", "hospital")
        return QueryRequest(**kw)

    def test_drain_flushes_queued_work_and_stops(self, catalog, monkeypatch):
        admission = AdmissionController(
            TenantPolicy(max_concurrent=1, max_queue_depth=16)
        )
        server = QueryServer(catalog, admission=admission).start()
        release = threading.Event()

        def release_once_draining():
            wait_until(lambda: server.draining)
            release.set()

        with _hold_latency_faults(monkeypatch, release):
            calls = Calls(server, [self.request() for _ in range(8)])
            # one call runs, seven wait for its slot when drain begins
            wait_until(
                lambda: admission.running() == 1
                and admission.queue_depth() == 7
            )
            releaser = threading.Thread(target=release_once_draining)
            releaser.start()
            report = server.drain(deadline_seconds=30.0)
            releaser.join(timeout=30)
            assert not releaser.is_alive()
        # every call returned, all answered
        assert all(response.ok for response in calls.join())
        assert report["unresolved"] == 0
        assert report["within_deadline"]
        assert server.stopped

    def test_begin_drain_stops_intake_with_retry_hint(self, catalog):
        server = QueryServer(catalog).start()
        try:
            server.begin_drain()
            assert server.draining
            response = server.query(self.request())
            assert not response.ok
            assert response.error_code == "E_ADMISSION"
            assert "draining" in response.error_message
            assert response.retry_after_seconds is not None
        finally:
            server.drain(deadline_seconds=5.0)

    def test_drain_terminates_with_empty_queue(self, catalog):
        server = QueryServer(catalog).start()
        report = server.drain(deadline_seconds=5.0)
        assert report["rejected"] == 0
        assert report["unresolved"] == 0
        assert report["within_deadline"]

    def test_drain_twice_is_idempotent(self, catalog):
        server = QueryServer(catalog).start()
        server.drain(deadline_seconds=5.0)
        report = server.drain(deadline_seconds=5.0)
        assert report["unresolved"] == 0

    def test_ready_payload_lifecycle(self, catalog):
        server = QueryServer(catalog)
        ready, payload = server.ready_payload()
        assert not ready and "not started" in payload["reasons"]
        server.start()
        ready, payload = server.ready_payload()
        assert ready and payload["reasons"] == []
        server.begin_drain()
        ready, payload = server.ready_payload()
        assert not ready and "draining" in payload["reasons"]
        server.drain(deadline_seconds=5.0)
        ready, payload = server.ready_payload()
        assert not ready
        assert "stopped" in payload["reasons"]

    def test_resilience_payload_shape(self, catalog):
        from repro.serving.resilience import OverloadDetector

        admission = AdmissionController(overload=OverloadDetector())
        server = QueryServer(catalog, admission=admission)
        server.start()
        try:
            payload = server.resilience_payload()
            assert payload["shedding"]["enabled"]
            assert set(payload["shed"]) == {
                "critical",
                "default",
                "sheddable",
            }
            assert set(payload) == {"shedding", "shed", "drain"}
            assert payload["drain"]["draining"] is False
            assert payload["drain"]["report"] is None
        finally:
            server.stop()
        payload = server.resilience_payload()
        assert payload["drain"]["stopped"] is True

    def test_resilience_payload_without_detector(self, catalog):
        server = QueryServer(catalog)
        payload = server.resilience_payload()
        assert payload["shedding"] == {"enabled": False}
