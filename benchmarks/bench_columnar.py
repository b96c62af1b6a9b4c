"""Columnar (set-at-a-time) plan execution vs the reference interpreter.

The workload is the descendant-heavy shape that dominates Section 6:
the naive-baseline rewrites of Adex Q1-Q3 (every child axis relaxed to
``//``, an ``[@accessibility = "1"]`` qualifier on the last step) plus
two deep structural ``//``-chains, evaluated on the largest generated
dataset (D4).  Two evaluators answer each query:

* ``interpreter`` — the node-at-a-time reference evaluator
  (:class:`XPathEvaluator`, also the engine's fallback when a NodeTable
  cannot be built);
* ``columnar`` — the compiled plans executing set-at-a-time over the
  :class:`~repro.xmlmodel.store.NodeTable` (interval joins on sorted
  row frontiers), the engine's one plan backend.

``test_columnar_speedup`` asserts the acceptance bar — >= 3x geometric
mean over the interpreter with node-for-node identical results — and
writes ``BENCH_columnar.json`` (per-query wall times, visit counts,
geomeans) next to the repository root for machine consumption.
"""

import json
import math
import time
from pathlib import Path

import pytest

from repro.core.naive import annotate_document, naive_rewrite
from repro.workloads.adex import adex_dtd, adex_spec
from repro.workloads.documents import bench_scale, dataset
from repro.workloads.queries import ADEX_QUERIES
from repro.xmlmodel.store import build_node_table
from repro.xpath.evaluator import XPathEvaluator
from repro.xpath.parser import parse_xpath
from repro.xpath.plan import PlanRuntime, compile_path

REPORT_PATH = Path(__file__).resolve().parent.parent / "BENCH_columnar.json"

#: Deep structural chains without qualifiers, to isolate the interval
#: kernels from qualifier evaluation.
STRUCTURAL_QUERY_TEXTS = {
    "S1": "//body//real-estate//r-e.location",
    "S2": "//ad-instance//house//*",
}


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
    return document, store, queries, plans


QUERY_NAMES = ["Q1", "Q2", "Q3", "S1", "S2"]


@pytest.mark.parametrize("query_name", QUERY_NAMES)
def test_interpreter_backend(benchmark, workload, query_name):
    document, _, queries, _ = workload
    query = queries[query_name]
    benchmark.group = "columnar-%s" % query_name
    benchmark(
        lambda: XPathEvaluator().evaluate(query, document, ordered=True)
    )


@pytest.mark.parametrize("query_name", QUERY_NAMES)
def test_columnar_backend(benchmark, workload, query_name):
    document, store, _, plans = workload
    plan = plans[query_name]
    benchmark.group = "columnar-%s" % query_name
    benchmark(
        lambda: plan.execute(document, runtime=PlanRuntime(store=store))
    )


def test_node_table_build(benchmark, workload):
    document, _, _, _ = workload
    benchmark.group = "columnar-build"
    benchmark(build_node_table, document)


def test_backends_agree(workload):
    """Both evaluators return the same nodes in the same order."""
    document, store, queries, plans = workload
    for name, query in queries.items():
        expected = XPathEvaluator().evaluate(query, document, ordered=True)
        via_columnar = plans[name].execute(
            document, runtime=PlanRuntime(store=store)
        )
        assert [id(n) for n in via_columnar] == [
            id(n) for n in expected
        ], name


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


def test_columnar_speedup(workload, request):
    """Acceptance bar: >= 3x geometric mean over the interpreter on
    the descendant-heavy workload, identical node sets.
    Also emits ``BENCH_columnar.json``."""
    if request.config.getoption("--quick", default=False):
        pytest.skip(
            "speedup bar is calibrated for full-size D4; quick-mode "
            "documents are overhead-bound"
        )
    document, store, queries, plans = workload
    repetitions = 5
    per_query = {}
    for name in QUERY_NAMES:
        query, plan = queries[name], plans[name]

        def run_interpreter():
            return XPathEvaluator().evaluate(query, document, ordered=True)

        def run_columnar():
            return plan.execute(document, runtime=PlanRuntime(store=store))

        results = run_columnar()
        assert [id(n) for n in results] == [
            id(n) for n in run_interpreter()
        ], name

        interpreter = XPathEvaluator()
        interpreter.evaluate(query, document, ordered=True)
        columnar_runtime = PlanRuntime(store=store)
        plan.execute(document, runtime=columnar_runtime)

        interpreter_s = _best_mean(run_interpreter, repetitions)
        columnar_s = _best_mean(run_columnar, repetitions)
        per_query[name] = {
            "query": str(query),
            "result_count": len(results),
            "interpreter_ms": interpreter_s * 1e3,
            "columnar_ms": columnar_s * 1e3,
            "speedup_vs_interpreter": interpreter_s / columnar_s,
            "visits": {
                "interpreter": interpreter.visits,
                "columnar": columnar_runtime.visits,
            },
        }
    geomean_vs_interpreter = _geomean(
        [cell["speedup_vs_interpreter"] for cell in per_query.values()]
    )
    report = {
        "dataset": "D4",
        "scale": bench_scale(),
        "document_nodes": document.size(),
        "node_table_rows": store.size,
        "queries": per_query,
        "geomean_speedup_vs_interpreter": geomean_vs_interpreter,
    }
    REPORT_PATH.write_text(json.dumps(report, indent=2) + "\n")
    assert geomean_vs_interpreter >= 3.0, per_query
