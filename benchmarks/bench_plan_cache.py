"""Plan cache: repeated-query throughput on the serving path.

The engine's plan cache amortizes parse → rewrite → optimize → compile
per ``(policy, query, optimize)`` instead of per request, and the
compiled plan runs over the document's columnar NodeTable.  These cells
measure the Adex workload (Section 6) on D2 under two configurations:

* ``seed`` — the pre-plan-cache pipeline, timed outside the engine:
  every request re-parses, re-rewrites and re-optimizes, then the
  reference interpreter (:class:`XPathEvaluator`) evaluates;
* ``cached`` — warm plan cache, columnar plan execution.

``test_warm_cache_speedup`` asserts the acceptance bar: on repeated
identical queries the warm cache path answers Q1-Q3 at least 5x faster
(geometric mean) than the seed path, with node-for-node identical
results.  (Q4 is excluded from the speedup bar: the optimizer proves it
empty, so both paths are trivially fast.)
"""

import math
import time

import pytest

from repro.core.engine import SecureQueryEngine
from repro.core.optimize import Optimizer
from repro.core.options import ExecutionOptions
from repro.workloads.adex import adex_dtd, adex_spec
from repro.workloads.documents import dataset
from repro.workloads.queries import ADEX_QUERY_TEXTS
from repro.xpath.evaluator import XPathEvaluator

CACHED = ExecutionOptions(project=False)
CACHED_PROJECTED = ExecutionOptions()


@pytest.fixture(scope="module")
def serving():
    dtd = adex_dtd()
    engine = SecureQueryEngine(dtd)
    engine.register_policy("adex", adex_spec(dtd))
    document = dataset("D2")
    # warm the plan cache and the NodeTable once
    for text in ADEX_QUERY_TEXTS.values():
        engine.query("adex", text, document, options=CACHED)
        engine.query("adex", text, document, options=CACHED_PROJECTED)
    return engine, document


def _seed_path(engine, text, document, optimizer=None):
    """One request on the pre-plan-cache pipeline: rewrite (uncached),
    optimize, interpret."""
    optimizer = optimizer or Optimizer(engine.dtd)
    rewritten = engine.rewrite_query("adex", text, document, use_cache=False)
    return XPathEvaluator().evaluate(
        optimizer.optimize(rewritten), document, ordered=True
    )


@pytest.mark.parametrize("query_name", list(ADEX_QUERY_TEXTS))
def test_repeated_query_seed_path(benchmark, serving, query_name):
    engine, document = serving
    text = ADEX_QUERY_TEXTS[query_name]
    optimizer = Optimizer(engine.dtd)
    benchmark.group = "plan-cache-%s" % query_name
    benchmark(_seed_path, engine, text, document, optimizer)


@pytest.mark.parametrize("query_name", list(ADEX_QUERY_TEXTS))
def test_repeated_query_cached(benchmark, serving, query_name):
    engine, document = serving
    text = ADEX_QUERY_TEXTS[query_name]
    benchmark.group = "plan-cache-%s" % query_name
    benchmark(engine.query, "adex", text, document, CACHED)


@pytest.mark.parametrize("query_name", list(ADEX_QUERY_TEXTS))
def test_repeated_query_cached_projected(benchmark, serving, query_name):
    """The full serving surface: warm cache + view projection."""
    engine, document = serving
    text = ADEX_QUERY_TEXTS[query_name]
    benchmark.group = "plan-cache-projected-%s" % query_name
    benchmark(engine.query, "adex", text, document, CACHED_PROJECTED)


def _best_mean(callable_, repetitions, trials=3):
    best = math.inf
    for _ in range(trials):
        start = time.perf_counter()
        for _ in range(repetitions):
            callable_()
        best = min(best, (time.perf_counter() - start) / repetitions)
    return best


def test_cached_results_identical(serving):
    """Warm-cache answers are node-for-node the seed path's answers."""
    engine, document = serving
    for text in ADEX_QUERY_TEXTS.values():
        seed = _seed_path(engine, text, document)
        warm = engine.query("adex", text, document, options=CACHED)
        assert [id(node) for node in seed] == [id(node) for node in warm]
        assert warm.report.cache_hit


def test_warm_cache_speedup(serving, request):
    """Acceptance bar: >= 5x (geomean, Q1-Q3) for repeated identical
    queries with a warm cache over the seed path."""
    if request.config.getoption("--quick", default=False):
        pytest.skip(
            "speedup bar is calibrated for full-size D2; quick-mode "
            "documents are overhead-bound"
        )
    engine, document = serving
    repetitions = 10
    optimizer = Optimizer(engine.dtd)
    ratios = {}
    for query_name in ("Q1", "Q2", "Q3"):
        text = ADEX_QUERY_TEXTS[query_name]
        seed_time = _best_mean(
            lambda: _seed_path(engine, text, document, optimizer),
            repetitions,
        )
        warm_time = _best_mean(
            lambda: engine.query("adex", text, document, options=CACHED),
            repetitions,
        )
        ratios[query_name] = seed_time / warm_time
    geomean = math.exp(
        sum(math.log(ratio) for ratio in ratios.values()) / len(ratios)
    )
    assert geomean >= 5.0, ratios
