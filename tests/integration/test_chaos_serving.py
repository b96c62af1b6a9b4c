"""The serving-layer chaos suite.

The engine chaos suite (``test_chaos.py``) proves the *single-query*
invariant under injected faults; this suite proves the *serving*
invariants — across admission, shedding and lifecycle — under the
same deterministic :class:`FaultPlan` machinery,
now aimed at the serving seams (``admission.admit``,
``serving.resolve``, ``serving.execute``, ``httpd.write``):

* **no hung calls** — every ``QueryServer.query`` call returns,
  faults or not;
* **typed codes everywhere** — every failed response carries a stable
  ``error_code``, never a raw traceback;
* **shed ordering** — ``critical`` is never shed by the detector, and
  under a uniform criticality mix the lower class sheds at least as
  often as the higher;
* **drain always terminates** — even with latency faults in flight,
  within its deadline plus the bounded grace, and no caller is left
  waiting for an admission slot;
* **audit parity** — shed requests produce audit error events like
  every other serving failure;
* **determinism** — a seeded fault plan over a sequential replay
  produces the identical outcome sequence when replayed.
"""

import threading

import pytest

from repro.obs.events import RingBufferSink
from repro.robustness.faults import FaultPlan, FaultSpec, active_plan
from repro.serving.admission import AdmissionController, TenantPolicy
from repro.serving.replay import mixed_workload, replay, standard_catalog
from repro.serving.resilience import (
    CRITICAL,
    CRITICALITIES,
    DEFAULT,
    SHEDDABLE,
    OverloadDetector,
    RetryBudget,
)
from repro.serving.server import QueryServer
from tests.serving_calls import Calls, wait_until

pytestmark = pytest.mark.chaos


@pytest.fixture(autouse=True)
def no_leftover_plan():
    yield
    assert active_plan() is None, "a chaos test leaked an installed FaultPlan"


def criticality_mix(requests):
    """A deterministic uniform assignment of criticality classes."""
    return [
        request.with_(criticality=CRITICALITIES[index % len(CRITICALITIES)])
        for index, request in enumerate(requests)
    ]


def serving_fault_matrix(seed):
    """Seeded rate faults at every serving seam (the HTTP write seam
    is exercised separately — replay is in-process)."""
    return FaultPlan(
        FaultSpec("admission.admit", rate=0.05, seed=seed),
        FaultSpec("serving.resolve", rate=0.05, seed=seed + 1),
        FaultSpec("serving.execute", rate=0.05, seed=seed + 2),
        name="serving-chaos-%d" % seed,
    )


class TestChaosSoak:
    """The acceptance scenario: a 16-thread mixed-tenant soak under a
    seeded fault matrix and a uniform criticality mix."""

    @pytest.mark.parametrize("seed", [0, 7])
    def test_sixteen_thread_soak_under_fault_matrix(self, seed):
        catalog = standard_catalog(seed=0)
        sinks = [
            engine.add_sink(RingBufferSink(capacity=4096))
            for engine in catalog.engines()
        ]
        detector = OverloadDetector()
        admission = AdmissionController(
            TenantPolicy(
                max_concurrent=2,
                max_queue_depth=32,
                queue_deadline_seconds=2.0,
            ),
            overload=detector,
        )
        requests = criticality_mix(mixed_workload(repetitions=2, seed=seed))
        server = QueryServer(catalog, admission=admission).start()
        plan = serving_fault_matrix(seed)
        with plan:
            stats = replay(server, requests, clients=16)
        report = server.drain(deadline_seconds=10.0)

        # no hung calls, no transport drops, everything accounted
        assert stats["requests"] == len(requests)
        assert stats["transport_errors"] == 0
        assert report["unresolved"] == 0
        assert report["within_deadline"]

        # typed codes on every failure — the fault matrix may surface
        # only back-pressure/fault codes, never untyped errors
        assert set(stats["errors"]) <= {
            "E_FAULT",
            "E_SHED",
            "E_ADMISSION",
            "E_DEADLINE",
        }

        # shed ordering: critical never shed by the detector; under a
        # uniform mix the lower class sheds at least as often
        shed = admission.shed_counts()
        assert shed[CRITICAL] == 0
        assert shed[SHEDDABLE] >= shed[DEFAULT]

        # audit parity: every E_SHED response produced an audit event
        shed_events = sum(
            1
            for sink in sinks
            for event in sink.events(kind="error")
            if event.code == "E_SHED"
        )
        assert shed_events == stats["errors"].get("E_SHED", 0)
        for engine, sink in zip(catalog.engines(), sinks):
            engine.remove_sink(sink)

    def test_soak_with_retry_budget_does_not_amplify(self):
        catalog = standard_catalog(seed=0)
        admission = AdmissionController(
            TenantPolicy(
                max_concurrent=1,
                max_queue_depth=2,
                queue_deadline_seconds=0.5,
            ),
            overload=OverloadDetector(),
        )
        requests = criticality_mix(mixed_workload(repetitions=2, seed=3))
        budget = RetryBudget(ratio=0.1, burst=4.0)
        server = QueryServer(catalog, admission=admission).start()
        stats = replay(server, requests, clients=16, retry_budget=budget)
        report = server.drain(deadline_seconds=10.0)
        assert report["unresolved"] == 0
        # the budget caps amplification: retries stay a small fraction
        assert stats["retries"] <= len(requests) * 0.1 + 4 * len(
            stats["tenants"]
        )
        assert stats["retry_budget"]["spent"] == stats["retries"]


class TestChaosDeterminism:
    """Same seed, same plan, same sequential request stream -> the
    identical outcome sequence (thread interleaving is the only source
    of nondeterminism, so a 1-client replay removes it)."""

    def one_run(self, seed):
        catalog = standard_catalog(seed=0)
        requests = criticality_mix(mixed_workload(repetitions=1, seed=seed))
        plan = serving_fault_matrix(seed)
        outcomes = []
        with QueryServer(catalog) as server:
            with plan:
                for request in requests:
                    response = server.query(request)
                    outcomes.append(
                        (response.ok, response.error_code)
                    )
        return outcomes, plan.fired()

    @pytest.mark.parametrize("seed", [0, 11])
    def test_seeded_replay_is_identical(self, seed):
        first, first_fired = self.one_run(seed)
        second, second_fired = self.one_run(seed)
        assert first == second
        assert first_fired == second_fired
        assert first_fired > 0  # the plan actually did something


class TestDrainUnderChaos:
    def test_drain_terminates_with_latency_faults_in_flight(self):
        catalog = standard_catalog(seed=0)
        requests = mixed_workload(repetitions=1, seed=0)
        server = QueryServer(catalog).start()
        with FaultPlan(
            FaultSpec(
                "serving.execute",
                kind="latency",
                latency_seconds=0.02,
                every=2,
            )
        ):
            calls = Calls(server, requests)
            wait_until(lambda: calls.started() == len(requests))
            report = server.drain(deadline_seconds=20.0)
            responses = calls.join()
        assert report["unresolved"] == 0
        for response in responses:
            assert response.ok or response.error_code

    def test_drain_past_deadline_rejects_rather_than_hangs(self):
        catalog = standard_catalog(seed=0)
        requests = mixed_workload(repetitions=2, seed=0)
        # one slot per tenant: most calls wait in admission
        admission = AdmissionController(
            TenantPolicy(max_concurrent=1, max_queue_depth=64)
        )
        server = QueryServer(catalog, admission=admission).start()
        with FaultPlan(
            FaultSpec(
                "serving.execute",
                kind="latency",
                latency_seconds=0.05,
                every=1,
            )
        ):
            calls = Calls(server, requests)
            wait_until(lambda: calls.started() == len(requests))
            # a deadline far shorter than the waiters need: drain must
            # still terminate promptly and answer every call
            report = server.drain(deadline_seconds=0.2)
            responses = calls.join()
        assert report["unresolved"] == 0
        codes = {
            response.error_code for response in responses if not response.ok
        }
        assert codes <= {"E_ADMISSION", "E_FAULT"}
        assert report["rejected"] >= 1


class TestHttpWriteFaults:
    def test_write_fault_never_kills_the_server(self):
        """An injected failure at the HTTP write seam surfaces as a
        best-effort typed 500 (or a dropped connection) and the next
        request on a fresh connection succeeds."""
        import json
        import urllib.error
        import urllib.request

        from repro.serving.httpd import make_http_server

        catalog = standard_catalog(seed=0)
        server = QueryServer(catalog).start()
        httpd = make_http_server(server, port=0)
        thread = threading.Thread(target=httpd.serve_forever, daemon=True)
        thread.start()
        base = "http://127.0.0.1:%d" % httpd.server_address[1]
        payload = json.dumps(
            {"policy": "nurse", "query": "//patient", "document": "hospital"}
        ).encode("utf-8")

        def post():
            request = urllib.request.Request(
                base + "/query", data=payload, method="POST"
            )
            try:
                with urllib.request.urlopen(request, timeout=10) as reply:
                    return reply.status
            except urllib.error.HTTPError as error:
                return error.code
            except Exception:
                return None  # torn connection — tolerated, not a hang

        try:
            with FaultPlan(FaultSpec("httpd.write", at=1)):
                first = post()
            assert first in {500, None}
            assert post() == 200  # the server survived
        finally:
            httpd.shutdown()
            httpd.server_close()
            thread.join(timeout=5)
            server.drain(deadline_seconds=5.0)
