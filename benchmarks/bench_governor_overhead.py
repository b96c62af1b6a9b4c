"""Resource-governor overhead: limits must be free when disabled.

The governor threads one cooperative :class:`~repro.robustness.Budget`
check per operator batch through the plan kernels (mirroring the
``rt.profile is not None`` guard idiom), so an *ungoverned* query —
``limits=None``, the serving default — pays exactly one extra
attribute check per operator invocation.  Two configurations:

* **plan path, ungoverned** — the descendant-heavy columnar workload
  of ``bench_audit_overhead.py`` (naive Adex Q1-Q3 + two structural
  ``//``-chains on D4), compared against the pre-governor wall times
  checked into ``BENCH_audit.json`` (``events_disabled_ms``).  The
  acceptance bar is a geometric-mean ratio below 3%.
* **plan path, governed** — the same plans with a live budget carrying
  generous bounds (nothing trips), recorded for scale with a loose
  sanity bar: batch-granularity checkpoints plus the strided per-node
  tick must stay under 25% even on these pure-execution microbenches.
  End-to-end engine queries amortize this further (also recorded, no
  bar).

``test_governor_overhead`` writes ``BENCH_governor.json`` next to the
repository root for machine consumption.
"""

import json
import math
import time
from pathlib import Path

import pytest

from repro.core.engine import SecureQueryEngine
from repro.core.naive import annotate_document, naive_rewrite
from repro.core.options import ExecutionOptions
from repro.robustness import QueryLimits
from repro.workloads.adex import adex_dtd, adex_spec
from repro.workloads.documents import bench_scale, dataset
from repro.workloads.queries import ADEX_QUERIES, ADEX_QUERY_TEXTS
from repro.xmlmodel.store import build_node_table
from repro.xpath.parser import parse_xpath
from repro.xpath.plan import PlanRuntime, compile_path

REPO_ROOT = Path(__file__).resolve().parent.parent
REPORT_PATH = REPO_ROOT / "BENCH_governor.json"
BASELINE_PATH = REPO_ROOT / "BENCH_audit.json"

#: Ungoverned execution must not notice the governor at all.
UNGOVERNED_OVERHEAD_BAR = 1.03
#: A live (never-tripping) budget on the raw plan path: loose sanity
#: bar only; real deployments are engine-path (amortized further).
GOVERNED_OVERHEAD_BAR = 1.25

#: Generous enough that nothing ever trips during the benchmark.
GENEROUS = QueryLimits(
    deadline_seconds=300.0,
    max_results=10**9,
    max_visits=10**12,
    max_frontier_rows=10**9,
)

STRUCTURAL_QUERY_TEXTS = {
    "S1": "//body//real-estate//r-e.location",
    "S2": "//ad-instance//house//*",
}

PLAN_QUERY_NAMES = ["Q1", "Q2", "Q3", "S1", "S2"]
ENGINE_QUERY_NAMES = ["Q1", "Q2", "Q3", "Q4"]


def _plan_queries():
    queries = {
        name: naive_rewrite(ADEX_QUERIES[name]) for name in ("Q1", "Q2", "Q3")
    }
    for name, text in STRUCTURAL_QUERY_TEXTS.items():
        queries[name] = parse_xpath(text)
    return queries


@pytest.fixture(scope="module")
def plan_workload():
    document = dataset("D4")
    annotate_document(document, adex_spec(adex_dtd()))
    store = build_node_table(document)
    plans = {
        name: compile_path(query) for name, query in _plan_queries().items()
    }
    return document, store, plans


@pytest.fixture(scope="module")
def engine_workload():
    document = dataset("D1")
    dtd = adex_dtd()
    engine = SecureQueryEngine(dtd)
    engine.register_policy("adex", adex_spec(dtd))
    # warm: plan cache entries, projected plans, per-document caches
    for text in ADEX_QUERY_TEXTS.values():
        engine.query("adex", text, document)
    return engine, document


@pytest.mark.parametrize("query_name", PLAN_QUERY_NAMES)
def test_plan_ungoverned(benchmark, plan_workload, query_name):
    document, store, plans = plan_workload
    plan = plans[query_name]
    benchmark.group = "governor-plan-%s" % query_name
    benchmark(
        lambda: plan.execute(
            document, runtime=PlanRuntime(store=store)
        )
    )


@pytest.mark.parametrize("query_name", PLAN_QUERY_NAMES)
def test_plan_governed(benchmark, plan_workload, query_name):
    document, store, plans = plan_workload
    plan = plans[query_name]
    benchmark.group = "governor-plan-%s" % query_name
    benchmark(
        lambda: plan.execute(
            document,
            runtime=PlanRuntime(store=store, budget=GENEROUS.budget()),
        )
    )


@pytest.mark.parametrize("query_name", ENGINE_QUERY_NAMES)
def test_engine_governed(benchmark, engine_workload, query_name):
    engine, document = engine_workload
    text = ADEX_QUERY_TEXTS[query_name]
    options = ExecutionOptions(limits=GENEROUS)
    benchmark.group = "governor-engine-%s" % query_name
    benchmark(lambda: engine.query("adex", text, document, options=options))


def test_limits_do_not_change_answers(engine_workload):
    """A generous budget must not change a single answer."""
    engine, document = engine_workload
    options = ExecutionOptions(limits=GENEROUS)
    for text in ADEX_QUERY_TEXTS.values():
        plain = list(engine.query("adex", text, document))
        governed = list(engine.query("adex", text, document, options=options))
        assert len(governed) == len(plain), text


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


def test_governor_overhead(plan_workload, engine_workload, request):
    """Acceptance bars: ungoverned plan path unchanged (< 3% geomean
    vs ``BENCH_audit.json``), governed plan path under the loose
    sanity bar.  Also emits ``BENCH_governor.json``."""
    if request.config.getoption("--quick", default=False):
        pytest.skip(
            "overhead bars are calibrated for full-size D4; quick-mode "
            "documents are overhead-bound"
        )
    if not BASELINE_PATH.exists():
        pytest.skip("no BENCH_audit.json baseline checked in")
    baseline = json.loads(BASELINE_PATH.read_text())["plan_queries"]
    document, store, plans = plan_workload
    engine, engine_document = engine_workload
    repetitions = 5

    plan_cells = {}
    for name in PLAN_QUERY_NAMES:
        plan = plans[name]

        def run_ungoverned():
            return plan.execute(
                document, runtime=PlanRuntime(store=store)
            )

        def run_governed():
            return plan.execute(
                document,
                runtime=PlanRuntime(store=store, budget=GENEROUS.budget()),
            )

        ungoverned_s = _best_mean(run_ungoverned, repetitions)
        governed_s = _best_mean(run_governed, repetitions)
        baseline_ms = baseline[name]["events_disabled_ms"]
        plan_cells[name] = {
            "baseline_ms": baseline_ms,
            "ungoverned_ms": ungoverned_s * 1e3,
            "governed_ms": governed_s * 1e3,
            "ungoverned_overhead": ungoverned_s * 1e3 / baseline_ms,
            "governed_overhead": governed_s / ungoverned_s,
        }

    engine_cells = {}
    options = ExecutionOptions(limits=GENEROUS)
    for name in ENGINE_QUERY_NAMES:
        text = ADEX_QUERY_TEXTS[name]
        plain_s = _best_mean(
            lambda: engine.query("adex", text, engine_document), repetitions
        )
        governed_s = _best_mean(
            lambda: engine.query(
                "adex", text, engine_document, options=options
            ),
            repetitions,
        )
        engine_cells[name] = {
            "ungoverned_ms": plain_s * 1e3,
            "governed_ms": governed_s * 1e3,
            "governed_overhead": governed_s / plain_s,
        }

    geomean_ungoverned = _geomean(
        [cell["ungoverned_overhead"] for cell in plan_cells.values()]
    )
    geomean_governed = _geomean(
        [cell["governed_overhead"] for cell in plan_cells.values()]
    )
    geomean_engine = _geomean(
        [cell["governed_overhead"] for cell in engine_cells.values()]
    )
    report = {
        "plan_dataset": "D4",
        "engine_dataset": "D1",
        "scale": bench_scale(),
        "ungoverned_overhead_bar": UNGOVERNED_OVERHEAD_BAR,
        "governed_overhead_bar": GOVERNED_OVERHEAD_BAR,
        "plan_queries": plan_cells,
        "engine_queries": engine_cells,
        "geomean_ungoverned_overhead": geomean_ungoverned,
        "geomean_governed_plan_overhead": geomean_governed,
        "geomean_governed_engine_overhead": geomean_engine,
    }
    REPORT_PATH.write_text(json.dumps(report, indent=2) + "\n")
    assert geomean_ungoverned <= UNGOVERNED_OVERHEAD_BAR, plan_cells
    assert geomean_governed <= GOVERNED_OVERHEAD_BAR, plan_cells
