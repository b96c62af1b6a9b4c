"""Workload-profiler overhead: fingerprinting plus heavy-hitter
accounting must be near-free on the serving hot path.

PR 9 computes a canonical query fingerprint at plan-compile time (so
cached plans carry it for free), and each served request's
:class:`~repro.obs.record.QueryRecord` reaches a
:class:`~repro.obs.workload.WorkloadProfiler` — a dict update plus a
histogram observation under a lock.
Both arms here run with tracing **enabled** (the serving default), so
the measured delta isolates the profiler itself:

* ``off`` — ``QueryServer(profiling=False)``: no profiler installed,
  the engine hot path pays one ``is not None`` check per query.
* ``on`` — ``QueryServer(profiling=True)`` (the default): shared
  profiler across the catalog's engines, per-tenant space-saving
  sketches.

The acceptance bar is same-process: the geometric-mean (sequential +
concurrent qps ratio) slowdown of ``on`` over ``off`` must stay below
3%.  The run also checks the boundedness contract — no tenant's
sketch may exceed the profiler capacity, however many distinct query
shapes the replay produced.

``test_workload_overhead_report`` writes ``BENCH_workload.json`` at
the repository root for machine consumption.
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
REPORT_PATH = REPO_ROOT / "BENCH_workload.json"

#: Acceptance bar: geometric-mean qps slowdown of profiling-on over
#: profiling-off, both arms measured in the same process.
OVERHEAD_BAR = 1.03

REPLAY_CLIENTS = 16
REPLAY_WORKERS = 8
REPLAY_REPETITIONS = 6


@pytest.fixture(scope="module")
def requests():
    return mixed_workload(repetitions=REPLAY_REPETITIONS, seed=0)


def _replay_pass(requests, clients, profiling, trials):
    """Best-of-N replay against a fresh catalog per trial (cold caches
    would favour later trials on a shared one)."""
    best = None
    workload_report = {}
    for _ in range(trials):
        catalog = standard_catalog(seed=0)
        with QueryServer(
            catalog,
            workers=REPLAY_WORKERS,
            profiling=profiling,
        ) as server:
            # warm the engines so the measurement isolates serving
            warm = replay(server, requests, clients=clients)
            assert not warm["errors"], warm["errors"]
            stats = replay(server, requests, clients=clients)
            if profiling:
                workload_report = server.workload.report()
        assert not stats["errors"], stats["errors"]
        if best is None or stats["qps"] > best["qps"]:
            best = stats
    return best, workload_report


def _sequential_qps(requests, profiling, trials):
    best = math.inf
    for _ in range(trials):
        catalog = standard_catalog(seed=0)
        with QueryServer(
            catalog, workers=1, profiling=profiling
        ) as server:
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


def test_workload_overhead_report(requests, request):
    """Measure profiling off vs on same-process, check sketch
    boundedness, write ``BENCH_workload.json``, and enforce the
    <1.03x bar."""
    quick = request.config.getoption("--quick", default=False)
    trials = 1 if quick else 3

    sequential_off = _sequential_qps(requests, profiling=False, trials=trials)
    sequential_on = _sequential_qps(requests, profiling=True, trials=trials)
    concurrent_off, _ = _replay_pass(
        requests, REPLAY_CLIENTS, profiling=False, trials=trials
    )
    concurrent_on, workload_report = _replay_pass(
        requests, REPLAY_CLIENTS, profiling=True, trials=trials
    )

    # boundedness: however many shapes the replay produced, no tenant
    # sketch may exceed the profiler capacity
    capacity = workload_report["capacity"]
    tenants = workload_report["tenants"]
    assert tenants, "profiling on but no tenants recorded"
    total_queries = 0
    for tenant, bucket in tenants.items():
        assert bucket["fingerprints"] <= capacity, (tenant, bucket)
        total_queries += bucket["queries"]
    # warm pass + measured pass through the same server
    assert total_queries == 2 * len(requests)

    overhead = _geomean(
        [
            sequential_off / sequential_on,
            concurrent_off["qps"] / concurrent_on["qps"],
        ]
    )
    # a small top-K sample per tenant keeps the report inspectable
    # without embedding every shape
    top_sample = {
        tenant: [
            {
                "fingerprint": entry["fingerprint"],
                "shape": entry["shape"],
                "count": entry["count"],
                "p95_ms": entry["p95_ms"],
                "cache_hit_ratio": entry["cache_hit_ratio"],
            }
            for entry in bucket["top"][:3]
        ]
        for tenant, bucket in sorted(tenants.items())
    }
    report = {
        "scale": bench_scale(),
        "overhead_bar": OVERHEAD_BAR,
        "workload": {
            "clients": REPLAY_CLIENTS,
            "workers": REPLAY_WORKERS,
            "repetitions": REPLAY_REPETITIONS,
            "requests": len(requests),
        },
        "off": {
            "sequential_qps": sequential_off,
            "concurrent_qps": concurrent_off["qps"],
            "concurrent_p95_ms": concurrent_off["p95_ms"],
        },
        "on": {
            "sequential_qps": sequential_on,
            "concurrent_qps": concurrent_on["qps"],
            "concurrent_p95_ms": concurrent_on["p95_ms"],
            "profiler_overhead": overhead,
            "capacity": capacity,
            "tenants": {
                tenant: {
                    "queries": bucket["queries"],
                    "fingerprints": bucket["fingerprints"],
                    "evictions": bucket["evictions"],
                }
                for tenant, bucket in sorted(tenants.items())
            },
            "top": top_sample,
        },
    }

    if quick:
        # smoke: correctness only, tiny documents are noise-bound
        return
    REPORT_PATH.write_text(json.dumps(report, indent=2) + "\n")
    assert overhead <= OVERHEAD_BAR, report["on"]
