"""Mixed-tenant workload replay for the serving layer.

Builds the standard two-document catalog (the hospital example with
its nurse and doctor user classes, plus the paper's Section 6 Adex
workload) and replays a shuffled multi-tenant request stream against a
:class:`~repro.serving.server.QueryServer` from N concurrent client
threads, measuring end-to-end latency percentiles and throughput.

This is the engine room of the ``repro replay`` CLI command, which
prints the numbers, and of the canary soak in
``tests/integration/test_canary.py``, which replays the workload with
every answer checked against the materialized-view oracle.
"""

from __future__ import annotations

import random
from threading import Thread
from time import monotonic
from typing import Dict, List, Optional

from repro.core.options import ExecutionOptions
from repro.obs.metrics import percentile
from repro.serving.protocol import QueryRequest, QueryResponse
from repro.serving.resilience import RetryBudget
from repro.serving.server import EngineCatalog, QueryServer

__all__ = [
    "standard_catalog",
    "mixed_workload",
    "replay",
    "summarize",
]

#: Error codes a client may retry (pure back-pressure — the request
#: itself was fine); everything else retries would just repeat.
RETRYABLE_CODES = frozenset({"E_SHED", "E_ADMISSION"})

#: Document refs of the standard catalog.
HOSPITAL_REF = "hospital"
ADEX_REF = "adex"


def standard_catalog(seed: int = 0) -> EngineCatalog:
    """The hospital (nurse + doctor tenants) and Adex (buyer tenant)
    engines behind one catalog — two DTDs, three user classes."""
    from repro.workloads.adex import adex_document, adex_engine
    from repro.workloads.hospital import (
        doctor_spec,
        hospital_document,
        hospital_dtd,
        nurse_engine,
    )

    hospital = nurse_engine(ward="2")
    hospital.register_policy("doctor", doctor_spec(hospital_dtd()))
    adex = adex_engine()
    return (
        EngineCatalog()
        .add(HOSPITAL_REF, hospital, hospital_document(seed=seed))
        .add(ADEX_REF, adex, adex_document(seed=seed))
    )


def mixed_workload(
    repetitions: int = 4,
    seed: int = 0,
    options: Optional[ExecutionOptions] = None,
) -> List[QueryRequest]:
    """A shuffled multi-tenant request stream: every hospital query as
    nurse and as doctor, every Adex query as the buyer, repeated
    ``repetitions`` times and shuffled deterministically by ``seed``."""
    from repro.workloads.queries import ADEX_QUERY_TEXTS, HOSPITAL_QUERY_TEXTS

    requests: List[QueryRequest] = []
    for _ in range(repetitions):
        for text in HOSPITAL_QUERY_TEXTS.values():
            for policy in ("nurse", "doctor"):
                requests.append(
                    QueryRequest(
                        policy=policy,
                        query=text,
                        document=HOSPITAL_REF,
                        options=options,
                    )
                )
        for text in ADEX_QUERY_TEXTS.values():
            requests.append(
                QueryRequest(
                    policy="real-estate-buyer",
                    query=text,
                    document=ADEX_REF,
                    options=options,
                )
            )
    random.Random(seed).shuffle(requests)
    return requests


def summarize(latencies: List[float], elapsed: float) -> Dict[str, float]:
    """Latency percentiles (ms) and throughput for one replay run."""
    return {
        "requests": len(latencies),
        "elapsed_seconds": elapsed,
        "qps": len(latencies) / elapsed if elapsed > 0 else 0.0,
        "p50_ms": percentile(latencies, 0.50) * 1e3,
        "p95_ms": percentile(latencies, 0.95) * 1e3,
        "p99_ms": percentile(latencies, 0.99) * 1e3,
    }


def _client_query(server: QueryServer, request: QueryRequest) -> tuple:
    """One synchronous request that can *never* raise: a transport
    failure comes back as a typed error response plus a
    ``transport_error`` flag."""
    try:
        return server.query(request), False
    except Exception as error:
        return QueryResponse.from_error(request, error), True


def replay(
    server: QueryServer,
    requests: List[QueryRequest],
    clients: int = 16,
    retry_budget: Optional[RetryBudget] = None,
) -> Dict[str, object]:
    """Replay ``requests`` through ``server`` from ``clients`` threads.

    Each client thread sends its share synchronously (query, then the
    next) — the closed-loop model, so concurrency equals ``clients``.
    Returns the summary stats plus per-tenant latency breakdowns and
    the count of failed responses by error code.

    With a ``retry_budget`` (see
    :class:`~repro.serving.resilience.RetryBudget`) the client path
    retries shed/rejected responses (``E_SHED`` / ``E_ADMISSION``)
    once, but only while the per-tenant budget has tokens — the
    well-behaved-client model that cannot amplify an overload.

    Never tracebacks when the server drains or stops mid-replay:
    dropped requests become typed error responses, the summary is
    marked ``partial``, and each client stops submitting as soon as
    the server reports it is draining.
    """
    shares: List[List[QueryRequest]] = [[] for _ in range(clients)]
    for index, request in enumerate(requests):
        shares[index % clients].append(request)

    latencies: List[List[float]] = [[] for _ in range(clients)]
    responses: List[List[QueryResponse]] = [[] for _ in range(clients)]
    transport_errors = [0] * clients
    retries = [0] * clients
    skipped = [0] * clients

    def client(index: int) -> None:
        for request in shares[index]:
            if server.draining or server.stopped:
                # mid-replay drain: stop offering load, report the
                # remainder as skipped rather than hammering a dying
                # server with requests it will only reject
                skipped[index] += 1
                continue
            started = monotonic()
            response, dropped = _client_query(server, request)
            if dropped:
                transport_errors[index] += 1
            if retry_budget is not None:
                retry_budget.record_request(request.tenant_id)
                if (
                    not response.ok
                    and response.error_code in RETRYABLE_CODES
                    and not (server.draining or server.stopped)
                    and retry_budget.try_spend(request.tenant_id)
                ):
                    retries[index] += 1
                    response, dropped = _client_query(server, request)
                    if dropped:
                        transport_errors[index] += 1
            latencies[index].append(monotonic() - started)
            responses[index].append(response)

    threads = [
        Thread(target=client, args=(index,), name="repro-client-%d" % index)
        for index in range(clients)
    ]
    started = monotonic()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = monotonic() - started

    flat_latencies = [value for share in latencies for value in share]
    flat_responses = [value for share in responses for value in share]

    per_tenant: Dict[str, List[float]] = {}
    errors: Dict[str, int] = {}
    for response, latency in zip(flat_responses, flat_latencies):
        per_tenant.setdefault(response.tenant or response.policy, []).append(
            latency
        )
        if not response.ok:
            code = response.error_code or "E_UNKNOWN"
            errors[code] = errors.get(code, 0) + 1

    summary = summarize(flat_latencies, elapsed)
    summary["clients"] = clients
    summary["errors"] = errors
    summary["transport_errors"] = sum(transport_errors)
    summary["skipped"] = sum(skipped)
    summary["partial"] = bool(
        sum(transport_errors)
        or sum(skipped)
        or server.draining
        or server.stopped
    )
    if retry_budget is not None:
        summary["retries"] = sum(retries)
        summary["retry_budget"] = retry_budget.snapshot()
    summary["tenants"] = {
        tenant: {
            "requests": len(values),
            "p50_ms": percentile(values, 0.50) * 1e3,
            "p95_ms": percentile(values, 0.95) * 1e3,
        }
        for tenant, values in sorted(per_tenant.items())
    }
    if server.flight is not None:
        # tracing was on: surface the flight recorder's retention
        # stats and per-tenant burn rates alongside the latencies
        summary["flight"] = server.flight.stats()
    if server.slo is not None:
        summary["slo"] = {
            tenant: {
                "requests": stats["requests"],
                "breaches": stats["breaches"],
                "compliance": stats["compliance"],
                "fast_burn_rate": stats["fast"]["burn_rate"],
                "slow_burn_rate": stats["slow"]["burn_rate"],
            }
            for tenant, stats in server.slo.snapshot()["tenants"].items()
        }
    return summary
