"""Observability overhead: instrumentation must be near-free when off.

Every plan operator now carries profiling hooks (``rt.profile is not
None`` checks) and the plan cache / NodeTable record into the metrics
registry (module-flag guarded).  This bench quantifies what that costs
on the serving hot path, using the same descendant-heavy columnar
workload as ``bench_columnar.py`` (naive Adex Q1-Q3 + two structural
``//``-chains on D4):

* ``disabled`` — the default serving path: no collector attached,
  metrics off.  Compared against the columnar wall times checked into
  ``BENCH_columnar.json``; the acceptance bar
  is a geometric-mean overhead below 3%.
* ``traced`` — ``ExecutionOptions(trace=True)`` equivalent: a
  :class:`~repro.obs.profile.ProfileCollector` attached to the
  runtime.  Reported for scale (no bar — tracing is opt-in).

``test_disabled_overhead`` writes ``BENCH_obs.json`` next to the
repository root for machine consumption.
"""

import json
import math
import time
from pathlib import Path

import pytest

from repro.core.naive import annotate_document, naive_rewrite
from repro.obs.profile import ProfileCollector
from repro.workloads.adex import adex_dtd, adex_spec
from repro.workloads.documents import bench_scale, dataset
from repro.workloads.queries import ADEX_QUERIES
from repro.xmlmodel.store import build_node_table
from repro.xpath.parser import parse_xpath
from repro.xpath.plan import PlanRuntime, compile_path

REPO_ROOT = Path(__file__).resolve().parent.parent
REPORT_PATH = REPO_ROOT / "BENCH_obs.json"
BASELINE_PATH = REPO_ROOT / "BENCH_columnar.json"

#: Acceptance bar: geometric-mean slowdown of the disabled path vs the
#: pre-instrumentation baseline.
OVERHEAD_BAR = 1.03

STRUCTURAL_QUERY_TEXTS = {
    "S1": "//body//real-estate//r-e.location",
    "S2": "//ad-instance//house//*",
}

QUERY_NAMES = ["Q1", "Q2", "Q3", "S1", "S2"]


def _workload_queries():
    queries = {
        name: naive_rewrite(ADEX_QUERIES[name]) for name in ("Q1", "Q2", "Q3")
    }
    for name, text in STRUCTURAL_QUERY_TEXTS.items():
        queries[name] = parse_xpath(text)
    return queries


@pytest.fixture(scope="module")
def workload():
    document = dataset("D4")
    annotate_document(document, adex_spec(adex_dtd()))
    store = build_node_table(document)
    queries = _workload_queries()
    plans = {name: compile_path(query) for name, query in queries.items()}
    return document, store, plans


@pytest.mark.parametrize("query_name", QUERY_NAMES)
def test_disabled_instrumentation(benchmark, workload, query_name):
    document, store, plans = workload
    plan = plans[query_name]
    benchmark.group = "obs-%s" % query_name
    benchmark(
        lambda: plan.execute(
            document, runtime=PlanRuntime(store=store)
        )
    )


@pytest.mark.parametrize("query_name", QUERY_NAMES)
def test_traced_execution(benchmark, workload, query_name):
    document, store, plans = workload
    plan = plans[query_name]
    benchmark.group = "obs-%s" % query_name
    benchmark(
        lambda: plan.execute(
            document,
            runtime=PlanRuntime(store=store, profile=ProfileCollector()),
        )
    )


def test_traced_results_identical(workload):
    """Attaching a collector must not change a single answer."""
    document, store, plans = workload
    for name, plan in plans.items():
        plain = plan.execute(
            document, runtime=PlanRuntime(store=store)
        )
        collector = ProfileCollector()
        traced = plan.execute(
            document,
            runtime=PlanRuntime(store=store, profile=collector),
        )
        assert [id(n) for n in traced] == [id(n) for n in plain], name
        assert len(collector) > 0, name


def _best_mean(callable_, repetitions, trials=3):
    best = math.inf
    for _ in range(trials):
        start = time.perf_counter()
        for _ in range(repetitions):
            callable_()
        best = min(best, (time.perf_counter() - start) / repetitions)
    return best


def _geomean(ratios):
    return math.exp(sum(math.log(r) for r in ratios) / len(ratios))


def test_disabled_overhead(workload, request):
    """Acceptance bar: disabled instrumentation costs < 3% (geomean)
    against the columnar wall times recorded in
    ``BENCH_columnar.json``.  Also emits ``BENCH_obs.json``."""
    if request.config.getoption("--quick", default=False):
        pytest.skip(
            "overhead bar is calibrated for full-size D4; quick-mode "
            "documents are overhead-bound"
        )
    if not BASELINE_PATH.exists():
        pytest.skip("no BENCH_columnar.json baseline checked in")
    baseline = json.loads(BASELINE_PATH.read_text())["queries"]
    document, store, plans = workload
    repetitions = 5
    per_query = {}
    for name in QUERY_NAMES:
        plan = plans[name]

        def run_disabled():
            return plan.execute(
                document, runtime=PlanRuntime(store=store)
            )

        def run_traced():
            return plan.execute(
                document,
                runtime=PlanRuntime(store=store, profile=ProfileCollector()),
            )

        disabled_s = _best_mean(run_disabled, repetitions)
        traced_s = _best_mean(run_traced, repetitions)
        baseline_ms = baseline[name]["columnar_ms"]
        per_query[name] = {
            "baseline_columnar_ms": baseline_ms,
            "disabled_ms": disabled_s * 1e3,
            "traced_ms": traced_s * 1e3,
            "disabled_overhead": disabled_s * 1e3 / baseline_ms,
            "traced_overhead": traced_s / disabled_s,
        }
    geomean_disabled = _geomean(
        [cell["disabled_overhead"] for cell in per_query.values()]
    )
    geomean_traced = _geomean(
        [cell["traced_overhead"] for cell in per_query.values()]
    )
    report = {
        "dataset": "D4",
        "scale": bench_scale(),
        "overhead_bar": OVERHEAD_BAR,
        "queries": per_query,
        "geomean_disabled_overhead": geomean_disabled,
        "geomean_traced_overhead": geomean_traced,
    }
    REPORT_PATH.write_text(json.dumps(report, indent=2) + "\n")
    assert geomean_disabled <= OVERHEAD_BAR, per_query
