"""Tracing overhead: the flight recorder and SLO tracker must be
near-free when serving runs with ``tracing=False``.

PR 8 threads a per-request span tree (queue wait, batch, engine
stages) through :class:`~repro.serving.server.QueryServer`; each
request's :class:`~repro.obs.record.QueryRecord` then reaches a
:class:`~repro.obs.flight.FlightRecorder` and an
:class:`~repro.obs.slo.SLOTracker` through the record fan-out.  All of
it is gated on the server's ``tracing`` flag; when off, requests must run the exact
pre-tracing hot path (``tracer=None`` reaches the engine, which builds
its own private tracer exactly as before this PR).

Two measurements over the same mixed-tenant replay workload as
``bench_serving.py`` (16 clients, 8 workers):

* ``disabled`` — ``QueryServer(tracing=False)``.
* ``enabled`` — the default tracing path: span tree per request,
  tail-sampled retention, SLO burn windows.  The same replay must
  leave every request findable in the flight recorder's accounting.

**The acceptance bar is same-process**: the geometric-mean
(sequential + concurrent qps ratio) slowdown of ``enabled`` over
``disabled``, both arms measured in this run, must stay below 3%.
Earlier revisions asserted ``disabled`` against the replay throughput
checked into ``BENCH_serving.json``; that cross-run ratio mixes in
machine/load drift between the run that wrote the baseline file and
the run reading it (it has measured *faster* than 1.0x), so it is now
recorded as informational only.

``test_tracing_overhead_report`` writes ``BENCH_tracing.json`` at the
repository root for machine consumption.
"""

import json
import math
import time
from pathlib import Path

import pytest

from repro.serving.replay import mixed_workload, replay, standard_catalog
from repro.serving.server import QueryServer
from repro.workloads.documents import bench_scale

REPO_ROOT = Path(__file__).resolve().parent.parent
REPORT_PATH = REPO_ROOT / "BENCH_tracing.json"
BASELINE_PATH = REPO_ROOT / "BENCH_serving.json"

#: Acceptance bar: geometric-mean qps slowdown of tracing-enabled over
#: tracing-disabled, both arms measured in the same process.
OVERHEAD_BAR = 1.03

REPLAY_CLIENTS = 16
REPLAY_WORKERS = 8
REPLAY_REPETITIONS = 6


@pytest.fixture(scope="module")
def requests():
    return mixed_workload(repetitions=REPLAY_REPETITIONS, seed=0)


def _replay_pass(requests, clients, tracing, trials):
    """Best-of-N replay against a fresh catalog per trial (cold caches
    would favour later trials on a shared one)."""
    best = None
    flight_stats = {}
    for _ in range(trials):
        catalog = standard_catalog(seed=0)
        with QueryServer(
            catalog,
            workers=REPLAY_WORKERS,
            tracing=tracing,
        ) as server:
            # warm the engines so the measurement isolates serving
            warm = replay(server, requests, clients=clients)
            assert not warm["errors"], warm["errors"]
            stats = replay(server, requests, clients=clients)
            if tracing:
                flight_stats = server.flight.stats()
        assert not stats["errors"], stats["errors"]
        if best is None or stats["qps"] > best["qps"]:
            best = stats
    return best, flight_stats


def _sequential_qps(requests, tracing, trials):
    best = math.inf
    for _ in range(trials):
        catalog = standard_catalog(seed=0)
        with QueryServer(catalog, workers=1, tracing=tracing) as server:
            for request_obj in requests:  # warm
                server.query(request_obj)
            started = time.perf_counter()
            for request_obj in requests:
                response = server.query(request_obj)
                assert response.ok, response.error_message
            best = min(best, time.perf_counter() - started)
    return len(requests) / best


def _geomean(ratios):
    return math.exp(sum(math.log(r) for r in ratios) / len(ratios))


def test_tracing_overhead_report(requests, request):
    """Measure disabled vs enabled tracing same-process, write
    ``BENCH_tracing.json``, and enforce the <1.03x enabled bar."""
    quick = request.config.getoption("--quick", default=False)
    trials = 1 if quick else 3

    sequential_off = _sequential_qps(requests, tracing=False, trials=trials)
    sequential_on = _sequential_qps(requests, tracing=True, trials=trials)
    concurrent_off, _ = _replay_pass(
        requests, REPLAY_CLIENTS, tracing=False, trials=trials
    )
    concurrent_on, flight_stats = _replay_pass(
        requests, REPLAY_CLIENTS, tracing=True, trials=trials
    )

    # the enabled path must account for every request it served
    # (warm pass + measured pass through the same server)
    assert flight_stats["recorded"] == 2 * len(requests)

    enabled_overhead = _geomean(
        [
            sequential_off / sequential_on,
            concurrent_off["qps"] / concurrent_on["qps"],
        ]
    )
    report = {
        "scale": bench_scale(),
        "overhead_bar": OVERHEAD_BAR,
        "workload": {
            "clients": REPLAY_CLIENTS,
            "workers": REPLAY_WORKERS,
            "repetitions": REPLAY_REPETITIONS,
            "requests": len(requests),
        },
        "disabled": {
            "sequential_qps": sequential_off,
            "concurrent_qps": concurrent_off["qps"],
            "concurrent_p95_ms": concurrent_off["p95_ms"],
        },
        "enabled": {
            "sequential_qps": sequential_on,
            "concurrent_qps": concurrent_on["qps"],
            "concurrent_p95_ms": concurrent_on["p95_ms"],
            "enabled_overhead": enabled_overhead,
            "flight": flight_stats,
        },
    }

    if quick:
        # smoke: correctness only, tiny documents are noise-bound
        return
    # informational only: the cross-run ratio against the checked-in
    # serving baseline drifts with machine load between runs, so it
    # carries no assertion (it once measured 0.89x — "faster than the
    # baseline" — purely from that drift)
    if BASELINE_PATH.exists():
        baseline = json.loads(BASELINE_PATH.read_text())["replay"]
        report["disabled"]["baseline_sequential_qps"] = baseline[
            "sequential"
        ]["qps"]
        report["disabled"]["baseline_concurrent_qps"] = baseline[
            "concurrent"
        ]["qps"]
        report["disabled"]["cross_run_disabled_ratio"] = _geomean(
            [
                baseline["sequential"]["qps"] / sequential_off,
                baseline["concurrent"]["qps"] / concurrent_off["qps"],
            ]
        )
    REPORT_PATH.write_text(json.dumps(report, indent=2) + "\n")
    assert enabled_overhead <= OVERHEAD_BAR, report["enabled"]
