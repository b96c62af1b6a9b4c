"""Serving-layer benchmark: concurrent replay throughput and a
canary-checked soak.

Two measurements over the mixed-tenant hospital+Adex workload
(:func:`repro.serving.replay.mixed_workload` — every hospital query as
nurse and as doctor plus the paper's Adex Q1-Q4 as the buyer):

* **replay** — the 16-client closed-loop replay through a
  :class:`~repro.serving.server.QueryServer` against a single-client
  sequential run of the same request list.  The acceptance bar:
  concurrent QPS must beat sequential QPS (the engine's shared caches
  must scale across threads rather than serialize them).
* **soak** — the full replay with the security canary sampling at
  100%: the acceptance bar is **zero canary violations**, i.e. the
  concurrent serving path answers exactly like the materialized-view
  oracle while under multi-threaded load.

``test_serving_report`` writes ``BENCH_serving.json`` at the repo root
(p50/p95/p99 latency, QPS, speedup) for machine consumption.
"""

import json
import time
from pathlib import Path

import pytest

from repro.serving.replay import (
    mixed_workload,
    replay,
    standard_catalog,
    summarize,
)
from repro.serving.server import QueryServer
from repro.workloads.documents import bench_scale

REPO_ROOT = Path(__file__).resolve().parent.parent
REPORT_PATH = REPO_ROOT / "BENCH_serving.json"

REPLAY_CLIENTS = 16
REPLAY_WORKERS = 8
REPLAY_REPETITIONS = 6


@pytest.fixture(scope="module")
def catalog():
    return standard_catalog(seed=0)


@pytest.fixture(scope="module")
def requests():
    return mixed_workload(repetitions=REPLAY_REPETITIONS, seed=0)


def _sequential(catalog, requests):
    """Single-client baseline: same requests, no server, no threads."""
    latencies = []
    started = time.perf_counter()
    for request in requests:
        engine, document = catalog.resolve(request.document)
        began = time.perf_counter()
        response = engine.execute_request(request, document)
        latencies.append(time.perf_counter() - began)
        assert response.ok, response.error_message
    return summarize(latencies, time.perf_counter() - started)


def test_replay_concurrent_beats_sequential(catalog, requests, request):
    sequential = _sequential(catalog, requests)
    with QueryServer(catalog, workers=REPLAY_WORKERS) as server:
        concurrent = replay(server, requests, clients=REPLAY_CLIENTS)
    assert not concurrent["errors"], concurrent["errors"]
    test_replay_concurrent_beats_sequential.result = {
        "sequential": sequential,
        "concurrent": concurrent,
        "qps_speedup": concurrent["qps"] / sequential["qps"],
    }
    if request.config.getoption("--quick", default=False):
        return  # smoke: correctness only, tiny documents are noise-bound
    assert concurrent["qps"] > sequential["qps"], (
        "16-client replay (%.1f qps) did not beat sequential (%.1f qps)"
        % (concurrent["qps"], sequential["qps"])
    )


def test_soak_zero_canary_violations(catalog, requests):
    """The whole mixed-tenant replay with the canary sampling 100%:
    every served answer must match the materialized-view oracle."""
    from repro.obs.events import RingBufferSink

    sinks = []
    engines = [catalog.resolve(ref)[0] for ref in catalog.refs()]
    for engine in engines:
        sink = engine.add_sink(RingBufferSink(capacity=4096))
        engine.enable_canary(1.0, seed=0)
        sinks.append((engine, sink))
    try:
        with QueryServer(catalog, workers=4) as server:
            stats = replay(server, requests, clients=8)
        assert not stats["errors"], stats["errors"]
        checks = violations = 0
        for _, sink in sinks:
            for event in sink.events(kind="canary"):
                checks += 1
                violations += event.violations
        assert checks > 0, "canary never sampled during the soak"
        assert violations == 0, "%d canary violations during soak" % violations
        test_soak_zero_canary_violations.result = {
            "canary_checks": checks,
            "canary_violations": violations,
        }
    finally:
        for engine, sink in sinks:
            engine.remove_sink(sink)
            engine.disable_canary()


def test_serving_report(catalog, requests, request):
    """Aggregate the measurements into ``BENCH_serving.json``."""
    if request.config.getoption("--quick", default=False):
        pytest.skip("report reflects full-size runs; quick mode is a smoke")
    replay_result = getattr(
        test_replay_concurrent_beats_sequential, "result", None
    )
    soak_result = getattr(test_soak_zero_canary_violations, "result", None)
    if not (replay_result and soak_result):
        pytest.skip("run the full module to produce the report")
    report = {
        "scale": bench_scale(),
        "workload": {
            "clients": REPLAY_CLIENTS,
            "workers": REPLAY_WORKERS,
            "repetitions": REPLAY_REPETITIONS,
            "requests": replay_result["concurrent"]["requests"],
            "tenants": sorted(replay_result["concurrent"]["tenants"]),
        },
        "replay": replay_result,
        "soak": soak_result,
    }
    REPORT_PATH.write_text(json.dumps(report, indent=2) + "\n")
    assert report["replay"]["qps_speedup"] > 1.0
    assert report["soak"]["canary_violations"] == 0
