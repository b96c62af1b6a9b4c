"""Resilience benchmark: shed-path overhead and goodput under overload.

Two measurements over the mixed-tenant hospital+Adex workload:

* **overhead** — the cost of carrying an armed
  :class:`~repro.serving.resilience.OverloadDetector` when the server
  is *not* overloaded.  The same replay runs through two otherwise
  identical servers — admission with and without the detector — with
  interleaved trials, min-of-trials elapsed.  The acceptance bar:
  the shed-path ratio stays under **1.03x** (shedding must be free
  until it fires).
* **goodput** — the point of priority shedding.  A burst of
  ``load``× the capacity that fits the queue deadline is submitted
  against a slot-constrained server whose execution is slowed by a
  deterministic latency fault (``serving.execute``), once without and
  once with shedding, under a uniform criticality mix.  The
  acceptance bar at the top load: ``critical`` goodput with shedding
  is at least the ``critical`` goodput without it, sheds actually
  happened, and no ``critical`` request was ever shed.

``test_resilience_report`` writes ``BENCH_resilience.json`` at the
repo root (overhead ratio, goodput-vs-load curve per criticality
class) for machine consumption; when ``BENCH_serving.json`` exists its
concurrent-replay QPS is included for cross-reference.
"""

import json
from pathlib import Path

import pytest

from repro.robustness.faults import FaultPlan, FaultSpec
from repro.serving.admission import AdmissionController, TenantPolicy
from repro.serving.replay import mixed_workload, replay, standard_catalog
from repro.serving.resilience import (
    CRITICAL,
    CRITICALITIES,
    OverloadDetector,
)
from repro.serving.server import QueryServer
from repro.workloads.documents import bench_scale

REPO_ROOT = Path(__file__).resolve().parent.parent
REPORT_PATH = REPO_ROOT / "BENCH_resilience.json"
SERVING_REPORT_PATH = REPO_ROOT / "BENCH_serving.json"

OVERHEAD_TRIALS = 5
OVERHEAD_CLIENTS = 8
OVERHEAD_REPETITIONS = 4
OVERHEAD_BAR = 1.03

#: Offered-load multiples measured for the goodput curve.
GOODPUT_LOADS = (1, 2, 4)
GOODPUT_BASE_REPETITIONS = 6
#: Injected execution latency: a deterministic floor under the
#: (measured) real execution cost.
GOODPUT_LATENCY_SECONDS = 0.005
#: Queue-deadline headroom over the measured 1x drain time: 1x fits,
#: 2x does not — but the critical third of the mix still does.
GOODPUT_DEADLINE_MARGIN = 1.5


@pytest.fixture(scope="module")
def catalog():
    cat = standard_catalog(seed=0)
    # warm every cache once so neither arm of a comparison pays the
    # cold-start cost
    for request in mixed_workload(repetitions=1, seed=0):
        engine, document = cat.resolve(request.document)
        response = engine.execute_request(request, document)
        assert response.ok, response.error_message
    return cat


def criticality_mix(requests):
    """A deterministic uniform assignment of criticality classes."""
    return [
        request.with_(criticality=CRITICALITIES[index % len(CRITICALITIES)])
        for index, request in enumerate(requests)
    ]


# -- shed-path overhead ----------------------------------------------------


def _overhead_trial(catalog, requests, with_detector):
    """One replay through a fresh server; both arms are identical but
    for the armed detector (generous bounds, so it never fires)."""
    admission = AdmissionController(
        TenantPolicy(max_concurrent=8, max_queue_depth=64),
        overload=OverloadDetector() if with_detector else None,
    )
    with QueryServer(catalog, admission=admission, workers=4) as server:
        stats = replay(server, requests, clients=OVERHEAD_CLIENTS)
    assert not stats["errors"], stats["errors"]
    if with_detector:
        # never overloaded -> the detector must not have shed anything
        assert all(
            count == 0 for count in admission.shed_counts().values()
        ), admission.shed_counts()
    return stats


def test_shed_path_overhead(catalog, request):
    """An armed-but-idle detector must cost (nearly) nothing."""
    quick = request.config.getoption("--quick", default=False)
    trials = 1 if quick else OVERHEAD_TRIALS
    requests = mixed_workload(repetitions=OVERHEAD_REPETITIONS, seed=0)
    baseline = []
    shedding = []
    for _ in range(trials):  # interleaved to share ambient noise
        baseline.append(_overhead_trial(catalog, requests, False))
        shedding.append(_overhead_trial(catalog, requests, True))
    base = min(stats["elapsed_seconds"] for stats in baseline)
    shed = min(stats["elapsed_seconds"] for stats in shedding)
    ratio = shed / base
    test_shed_path_overhead.result = {
        "trials": trials,
        "clients": OVERHEAD_CLIENTS,
        "repetitions": OVERHEAD_REPETITIONS,
        "requests": len(requests),
        "baseline_seconds": base,
        "shedding_seconds": shed,
        "baseline_qps": len(requests) / base,
        "shedding_qps": len(requests) / shed,
        "ratio": ratio,
        "bar": OVERHEAD_BAR,
    }
    if quick:
        return  # smoke: tiny documents are noise-bound
    assert ratio < OVERHEAD_BAR, (
        "armed detector cost %.3fx the detector-free path (bar %.2fx)"
        % (ratio, OVERHEAD_BAR)
    )


# -- goodput under overload ------------------------------------------------


def _by_class(pairs):
    """Per-criticality ``{requests, ok, goodput}`` plus the overall."""
    classes = {
        cls: {"requests": 0, "ok": 0} for cls in CRITICALITIES
    }
    for criticality, response in pairs:
        bucket = classes[criticality]
        bucket["requests"] += 1
        if response.ok:
            bucket["ok"] += 1
    for bucket in classes.values():
        bucket["goodput"] = (
            bucket["ok"] / bucket["requests"] if bucket["requests"] else 0.0
        )
    total = sum(bucket["requests"] for bucket in classes.values())
    ok = sum(bucket["ok"] for bucket in classes.values())
    return {
        "requests": total,
        "ok": ok,
        "goodput": ok / total if total else 0.0,
        "by_class": classes,
    }


def _service_seconds(catalog):
    """Measured warm per-request service time (sequential, plus the
    injected latency the goodput runs add at ``serving.execute``) —
    execution is CPU-bound Python, so the sequential rate is the
    honest capacity estimate."""
    from time import perf_counter

    requests = mixed_workload(repetitions=1, seed=0)
    started = perf_counter()
    for request in requests:
        engine, document = catalog.resolve(request.document)
        response = engine.execute_request(request, document)
        assert response.ok, response.error_message
    sequential = (perf_counter() - started) / len(requests)
    return sequential + GOODPUT_LATENCY_SECONDS


def _goodput_run(catalog, load, shed, base_repetitions, service_seconds):
    """Submit a ``load``x burst against a slot-constrained server with
    latency-inflated execution; return per-class goodput."""
    base = len(mixed_workload(repetitions=base_repetitions, seed=0))
    deadline = base * service_seconds * GOODPUT_DEADLINE_MARGIN
    detector = OverloadDetector() if shed else None
    admission = AdmissionController(
        TenantPolicy(
            max_concurrent=1,
            max_queue_depth=64,
            queue_deadline_seconds=deadline,
        ),
        overload=detector,
    )
    requests = criticality_mix(
        mixed_workload(repetitions=base_repetitions * load, seed=0)
    )
    server = QueryServer(
        catalog,
        admission=admission,
        workers=4,
        tracing=False,
        profiling=False,
    ).start()
    errors = {}
    try:
        with FaultPlan(
            FaultSpec(
                "serving.execute",
                kind="latency",
                latency_seconds=GOODPUT_LATENCY_SECONDS,
                every=1,
            )
        ):
            futures = [
                (request, server.submit(request)) for request in requests
            ]
            pairs = [
                (request.criticality_class, future.result(timeout=120))
                for request, future in futures
            ]
    finally:
        report = server.drain(deadline_seconds=30.0)
    assert report["unresolved"] == 0
    for _, response in pairs:
        if not response.ok:
            code = response.error_code or "E_UNKNOWN"
            errors[code] = errors.get(code, 0) + 1
    result = _by_class(pairs)
    result["errors"] = errors
    result["shed"] = admission.shed_counts()
    result["queue_deadline_seconds"] = deadline
    return result


def test_goodput_under_overload(catalog, request):
    """The goodput-vs-load curve with and without priority shedding."""
    quick = request.config.getoption("--quick", default=False)
    base_repetitions = 1 if quick else GOODPUT_BASE_REPETITIONS
    loads = (1, 2) if quick else GOODPUT_LOADS
    service = _service_seconds(catalog)
    curve = []
    for load in loads:
        without = _goodput_run(
            catalog, load, False, base_repetitions, service
        )
        with_shed = _goodput_run(
            catalog, load, True, base_repetitions, service
        )
        curve.append(
            {
                "load": load,
                "requests": with_shed["requests"],
                "without_shedding": without,
                "with_shedding": with_shed,
            }
        )
    test_goodput_under_overload.result = {
        "latency_fault_seconds": GOODPUT_LATENCY_SECONDS,
        "service_seconds": service,
        "base_repetitions": base_repetitions,
        "curve": curve,
    }
    # critical is never shed, whatever the load
    for point in curve:
        assert point["with_shedding"]["shed"][CRITICAL] == 0
    if quick:
        return  # smoke: tiny documents make capacity timing noise-bound
    top = curve[-1]
    shed_total = sum(top["with_shedding"]["shed"].values())
    assert shed_total > 0, "no request was shed at %dx load" % top["load"]
    critical_with = top["with_shedding"]["by_class"][CRITICAL]["goodput"]
    critical_without = top["without_shedding"]["by_class"][CRITICAL][
        "goodput"
    ]
    assert critical_with >= critical_without, (
        "shedding made critical goodput worse at %dx load "
        "(%.3f with vs %.3f without)"
        % (top["load"], critical_with, critical_without)
    )


# -- report ----------------------------------------------------------------


def test_resilience_report(catalog, request):
    """Aggregate the measurements into ``BENCH_resilience.json``."""
    if request.config.getoption("--quick", default=False):
        pytest.skip("report reflects full-size runs; quick mode is a smoke")
    overhead = getattr(test_shed_path_overhead, "result", None)
    goodput = getattr(test_goodput_under_overload, "result", None)
    if not (overhead and goodput):
        pytest.skip("run the full module to produce the report")
    serving_qps = None
    if SERVING_REPORT_PATH.exists():
        try:
            serving = json.loads(SERVING_REPORT_PATH.read_text())
            serving_qps = serving["replay"]["concurrent"]["qps"]
        except (ValueError, KeyError):
            serving_qps = None
    report = {
        "scale": bench_scale(),
        "overhead": dict(overhead, serving_baseline_qps=serving_qps),
        "goodput": goodput,
    }
    REPORT_PATH.write_text(json.dumps(report, indent=2) + "\n")
    assert report["overhead"]["ratio"] < OVERHEAD_BAR
    top = report["goodput"]["curve"][-1]
    assert (
        top["with_shedding"]["by_class"][CRITICAL]["goodput"]
        >= top["without_shedding"]["by_class"][CRITICAL]["goodput"]
    )
