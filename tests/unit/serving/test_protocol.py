"""The frozen QueryRequest/QueryResponse wire protocol."""

import dataclasses
import json

import pytest

from repro.core.options import ExecutionOptions
from repro.errors import DeadlineExceeded, QueryRejectedError
from repro.robustness.governor import QueryLimits
from repro.serving.protocol import (
    PROTOCOL_VERSION,
    QueryRequest,
    QueryResponse,
)


class TestQueryRequest:
    def test_frozen(self):
        request = QueryRequest(policy="nurse", query="//patient")
        with pytest.raises(dataclasses.FrozenInstanceError):
            request.policy = "doctor"

    def test_tenant_defaults_to_policy(self):
        assert QueryRequest(policy="nurse", query="//a").tenant_id == "nurse"
        assert (
            QueryRequest(policy="nurse", query="//a", tenant="ward-2").tenant_id
            == "ward-2"
        )

    def test_with_copies(self):
        request = QueryRequest(policy="nurse", query="//a")
        derived = request.with_(tenant="t1")
        assert derived.tenant == "t1" and request.tenant == ""

    def test_round_trip_minimal(self):
        request = QueryRequest(policy="nurse", query="//patient")
        assert QueryRequest.from_dict(request.to_dict()) == request

    def test_round_trip_full(self):
        request = QueryRequest(
            policy="nurse",
            query="//patient/name",
            document="hospital",
            tenant="ward-2",
            options=ExecutionOptions(
                use_cache=False,
                trace=True,
                limits=QueryLimits(deadline_seconds=0.5),
            ),
            request_id="r42",
        )
        assert QueryRequest.from_dict(request.to_dict()) == request

    def test_wire_shape_is_json_safe(self):
        request = QueryRequest(
            policy="nurse",
            query="//a",
            options=ExecutionOptions(limits=QueryLimits(max_results=3)),
        )
        payload = json.loads(json.dumps(request.to_dict()))
        assert payload["v"] == PROTOCOL_VERSION
        assert QueryRequest.from_dict(payload) == request

    def test_unknown_keys_ignored(self):
        request = QueryRequest.from_dict(
            {"policy": "p", "query": "//a", "hologram": True}
        )
        assert request.policy == "p"

    def test_criticality_round_trip(self):
        request = QueryRequest(
            policy="nurse", query="//a", criticality="sheddable"
        )
        assert request.to_dict()["criticality"] == "sheddable"
        assert QueryRequest.from_dict(request.to_dict()) == request

    def test_criticality_class_normalizes(self):
        assert QueryRequest(policy="p", query="//a").criticality_class == (
            "default"
        )
        assert (
            QueryRequest(
                policy="p", query="//a", criticality="critical"
            ).criticality_class
            == "critical"
        )
        # unknown wire values degrade to default, never an error
        assert (
            QueryRequest(
                policy="p", query="//a", criticality="ultra"
            ).criticality_class
            == "default"
        )

    def test_old_wire_payload_without_criticality_still_parses(self):
        request = QueryRequest.from_dict({"policy": "p", "query": "//a"})
        assert request.criticality == ""
        assert request.criticality_class == "default"


class TestQueryResponse:
    def test_from_error_carries_stable_code(self):
        request = QueryRequest(policy="nurse", query="//a", request_id="r1")
        response = QueryResponse.from_error(
            request, DeadlineExceeded("too slow")
        )
        assert not response.ok
        assert response.error_code == "E_DEADLINE"
        assert response.request_id == "r1"
        assert response.tenant == "nurse"
        assert response.results == ()

    def test_from_error_security_code(self):
        request = QueryRequest(policy="nurse", query="//secret")
        response = QueryResponse.from_error(
            request, QueryRejectedError("denied")
        )
        assert response.error_code == "E_LABEL_DENIED"

    def test_from_error_hides_internal_messages(self):
        request = QueryRequest(policy="nurse", query="//a")
        internal = QueryResponse.from_error(request, KeyError("clinicalTrial"))
        assert internal.error_code == "E_UNKNOWN"
        assert internal.error_message == "internal error"
        typed = QueryResponse.from_error(request, DeadlineExceeded("too slow"))
        assert typed.error_message == "too slow"

    def test_round_trip(self):
        response = QueryResponse(
            policy="nurse",
            query="//a",
            ok=True,
            results=("<name>x</name>", "text-value"),
            report={"visits": 3},
            request_id="r7",
            tenant="nurse",
        )
        assert QueryResponse.from_dict(response.to_dict()) == response

    def test_error_round_trip_via_json(self):
        request = QueryRequest(policy="p", query="//a", tenant="t")
        response = QueryResponse.from_error(request, DeadlineExceeded("x"))
        payload = json.loads(json.dumps(response.to_dict()))
        assert QueryResponse.from_dict(payload) == response

    def test_shed_error_carries_retry_after(self):
        from repro.errors import RequestShed

        request = QueryRequest(policy="p", query="//a", request_id="r9")
        response = QueryResponse.from_error(
            request,
            RequestShed(
                "shed",
                tenant="p",
                criticality="sheddable",
                utilization=0.7,
                retry_after_seconds=0.25,
            ),
        )
        assert response.error_code == "E_SHED"
        assert response.retry_after_seconds == pytest.approx(0.25)
        payload = json.loads(json.dumps(response.to_dict()))
        assert QueryResponse.from_dict(payload) == response

    def test_retry_after_defaults_to_none(self):
        request = QueryRequest(policy="p", query="//a")
        response = QueryResponse.from_error(request, DeadlineExceeded("x"))
        assert response.retry_after_seconds is None
        assert QueryResponse.from_dict({}).retry_after_seconds is None


class TestEngineIntegration:
    @pytest.fixture()
    def engine_and_document(self):
        from repro.workloads.hospital import (
            hospital_document,
            hospital_dtd,
            nurse_spec,
        )
        from repro.core.engine import SecureQueryEngine

        dtd = hospital_dtd()
        engine = SecureQueryEngine(dtd)
        engine.register_policy("nurse", nurse_spec(dtd), wardNo="2")
        return engine, hospital_document(seed=7, max_branch=4)

    def test_execute_request_matches_query(self, engine_and_document):
        from repro.xmlmodel.serialize import serialize

        engine, document = engine_and_document
        for text in ("//patient/name", "//patient//bill", "//patient/name"):
            request = QueryRequest(policy="nurse", query=text)
            response = engine.execute_request(request, document)
            direct = engine.query("nurse", text, document)
            assert response.ok
            assert list(response.results) == [
                value if isinstance(value, str) else serialize(value)
                for value in direct
            ]
            assert response.report["result_count"] == len(direct)

    def test_execute_request_wraps_failures(self, engine_and_document):
        engine, document = engine_and_document
        request = QueryRequest(policy="ghost", query="//patient")
        response = engine.execute_request(request, document)
        assert not response.ok
        assert response.error_code == "E_SECURITY"
