"""The serving-layer chaos suite.

The engine chaos suite (``test_chaos.py``) proves the *single-query*
invariant under injected faults; this suite proves the *serving*
invariants — across admission, batching, shedding and lifecycle — under the same deterministic :class:`FaultPlan` machinery,
now aimed at the serving seams (``admission.admit``,
``serving.resolve``, ``serving.execute``, ``httpd.write``):

* **no hung futures** — every submitted request resolves, faults or
  not, within the replay client's timeout;
* **typed codes everywhere** — every failed response carries a stable
  ``error_code``, never a raw traceback;
* **shed ordering** — ``critical`` is never shed by the detector, and
  under a uniform criticality mix the lower class sheds at least as
  often as the higher;
* **drain always terminates** — even with latency faults in flight,
  within its deadline plus the bounded join grace;
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
        server = QueryServer(catalog, admission=admission, workers=4).start()
        plan = serving_fault_matrix(seed)
        with plan:
            stats = replay(server, requests, clients=16)
        report = server.drain(deadline_seconds=10.0)

        # no hung futures, no transport drops, everything accounted
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
        server = QueryServer(catalog, admission=admission, workers=4).start()
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
    of nondeterminism, so a 1-client/1-worker replay removes it)."""

    def one_run(self, seed):
        catalog = standard_catalog(seed=0)
        requests = criticality_mix(mixed_workload(repetitions=1, seed=seed))
        plan = serving_fault_matrix(seed)
        outcomes = []
        with QueryServer(catalog, workers=1) as server:
            with plan:
                for request in requests:
                    response = server.query(request, timeout=30)
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
        server = QueryServer(catalog, workers=2).start()
        futures = []
        with FaultPlan(
            FaultSpec(
                "serving.execute",
                kind="latency",
                latency_seconds=0.02,
                every=2,
            )
        ):
            futures = [server.submit(request) for request in requests]
            report = server.drain(deadline_seconds=20.0)
        assert report["unresolved"] == 0
        for future in futures:
            response = future.result(timeout=0)  # already resolved
            assert response.ok or response.error_code

    def test_drain_past_deadline_rejects_rather_than_hangs(self):
        catalog = standard_catalog(seed=0)
        requests = mixed_workload(repetitions=2, seed=0)
        server = QueryServer(catalog, workers=1).start()
        with FaultPlan(
            FaultSpec(
                "serving.execute",
                kind="latency",
                latency_seconds=0.05,
                every=1,
            )
        ):
            futures = [server.submit(request) for request in requests]
            # a deadline far shorter than the queue needs: drain must
            # still terminate promptly and resolve every future
            report = server.drain(deadline_seconds=0.2)
        assert report["unresolved"] == 0
        codes = set()
        for future in futures:
            response = future.result(timeout=5)
            if not response.ok:
                codes.add(response.error_code)
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
        server = QueryServer(catalog, workers=1).start()
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
            assert post() == 200  # the worker thread survived
        finally:
            httpd.shutdown()
            httpd.server_close()
            thread.join(timeout=5)
            server.drain(deadline_seconds=5.0)
