"""Audit-pipeline overhead: events must be near-free when nobody
listens, and cheap when a ring buffer is.

Two serving-path configurations are measured:

* **plan path, events disabled** — the same descendant-heavy columnar
  workload as ``bench_obs_overhead.py`` (naive Adex Q1-Q3 + two
  structural ``//``-chains on D4), compared against the
  pre-audit-pipeline wall times checked into ``BENCH_obs.json``
  (``disabled_ms``).  The event layer is a consumer of each finished
  query's :class:`~repro.obs.record.QueryRecord`, so plan execution
  must be unchanged: the acceptance bar is
  a geometric-mean ratio below 3%.
* **engine path, ring-buffer sink** — warm-cache
  ``SecureQueryEngine.query`` over the Section 6 view queries on D1,
  with no sinks versus with a
  :class:`~repro.obs.events.RingBufferSink` attached.  Turning each
  query's record into one :class:`QueryEvent` and buffering it must
  cost under 5%
  (geomean).  D1 is deliberate: end-to-end queries there run in the
  ~0.1-100 ms range, so the fixed per-query event cost is *most*
  visible — the same bar on D4 (seconds per query) would be
  trivially satisfied.  A JSONL file sink is measured for scale (no
  bar — durable audit trails pay for their write+flush).

``test_audit_overhead`` writes ``BENCH_audit.json`` next to the
repository root for machine consumption.
"""

import json
import math
import time
from pathlib import Path

import pytest

from repro.core.engine import SecureQueryEngine
from repro.core.naive import annotate_document, naive_rewrite
from repro.obs.events import JsonlFileSink, RingBufferSink
from repro.workloads.adex import adex_dtd, adex_spec
from repro.workloads.documents import bench_scale, dataset
from repro.workloads.queries import ADEX_QUERIES, ADEX_QUERY_TEXTS
from repro.xmlmodel.store import build_node_table
from repro.xpath.parser import parse_xpath
from repro.xpath.plan import PlanRuntime, compile_path

REPO_ROOT = Path(__file__).resolve().parent.parent
REPORT_PATH = REPO_ROOT / "BENCH_audit.json"
BASELINE_PATH = REPO_ROOT / "BENCH_obs.json"

#: Plan execution must not notice the event layer at all.
PLAN_OVERHEAD_BAR = 1.03
#: An attached ring buffer may cost one event build + append per query.
SINK_OVERHEAD_BAR = 1.05

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
def test_plan_events_disabled(benchmark, plan_workload, query_name):
    document, store, plans = plan_workload
    plan = plans[query_name]
    benchmark.group = "audit-plan-%s" % query_name
    benchmark(
        lambda: plan.execute(
            document, runtime=PlanRuntime(store=store)
        )
    )


@pytest.mark.parametrize("query_name", ENGINE_QUERY_NAMES)
def test_engine_no_sink(benchmark, engine_workload, query_name):
    engine, document = engine_workload
    text = ADEX_QUERY_TEXTS[query_name]
    benchmark.group = "audit-engine-%s" % query_name
    benchmark(lambda: engine.query("adex", text, document))


@pytest.mark.parametrize("query_name", ENGINE_QUERY_NAMES)
def test_engine_ring_sink(benchmark, engine_workload, query_name):
    engine, document = engine_workload
    text = ADEX_QUERY_TEXTS[query_name]
    sink = engine.add_sink(RingBufferSink(capacity=1024))
    benchmark.group = "audit-engine-%s" % query_name
    try:
        benchmark(lambda: engine.query("adex", text, document))
    finally:
        engine.remove_sink(sink)
    assert sink.emitted > 0 and sink.dropped == 0


def test_sink_does_not_change_answers(engine_workload):
    """An attached sink must not change a single answer."""
    engine, document = engine_workload
    for text in ADEX_QUERY_TEXTS.values():
        plain = list(engine.query("adex", text, document))
        sink = engine.add_sink(RingBufferSink(capacity=16))
        try:
            audited = list(engine.query("adex", text, document))
        finally:
            engine.remove_sink(sink)
        assert len(audited) == len(plain), text
        assert sink.emitted == 1


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


def test_audit_overhead(plan_workload, engine_workload, request, tmp_path):
    """Acceptance bars: plan path unchanged (< 3% geomean vs
    ``BENCH_obs.json``), ring-buffer sink < 5% over the no-sink engine
    path.  Also emits ``BENCH_audit.json``."""
    if request.config.getoption("--quick", default=False):
        pytest.skip(
            "overhead bars are calibrated for full-size D4; quick-mode "
            "documents are overhead-bound"
        )
    if not BASELINE_PATH.exists():
        pytest.skip("no BENCH_obs.json baseline checked in")
    baseline = json.loads(BASELINE_PATH.read_text())["queries"]
    document, store, plans = plan_workload
    engine, engine_document = engine_workload
    repetitions = 5

    plan_cells = {}
    for name in PLAN_QUERY_NAMES:
        plan = plans[name]

        def run_plan():
            return plan.execute(
                document, runtime=PlanRuntime(store=store)
            )

        measured_s = _best_mean(run_plan, repetitions)
        baseline_ms = baseline[name]["disabled_ms"]
        plan_cells[name] = {
            "baseline_disabled_ms": baseline_ms,
            "events_disabled_ms": measured_s * 1e3,
            "overhead": measured_s * 1e3 / baseline_ms,
        }

    engine_cells = {}
    jsonl_path = tmp_path / "bench_audit.jsonl"
    for name in ENGINE_QUERY_NAMES:
        text = ADEX_QUERY_TEXTS[name]

        def run_query():
            return engine.query("adex", text, engine_document)

        no_sink_s = _best_mean(run_query, repetitions)
        ring = engine.add_sink(RingBufferSink(capacity=1024))
        try:
            ring_s = _best_mean(run_query, repetitions)
        finally:
            engine.remove_sink(ring)
        jsonl = engine.add_sink(JsonlFileSink(jsonl_path))
        try:
            jsonl_s = _best_mean(run_query, repetitions)
        finally:
            engine.remove_sink(jsonl)
            jsonl.close()
        engine_cells[name] = {
            "no_sink_ms": no_sink_s * 1e3,
            "ring_sink_ms": ring_s * 1e3,
            "jsonl_sink_ms": jsonl_s * 1e3,
            "ring_overhead": ring_s / no_sink_s,
            "jsonl_overhead": jsonl_s / no_sink_s,
        }

    geomean_plan = _geomean(
        [cell["overhead"] for cell in plan_cells.values()]
    )
    geomean_ring = _geomean(
        [cell["ring_overhead"] for cell in engine_cells.values()]
    )
    geomean_jsonl = _geomean(
        [cell["jsonl_overhead"] for cell in engine_cells.values()]
    )
    report = {
        "plan_dataset": "D4",
        "engine_dataset": "D1",
        "scale": bench_scale(),
        "plan_overhead_bar": PLAN_OVERHEAD_BAR,
        "sink_overhead_bar": SINK_OVERHEAD_BAR,
        "plan_queries": plan_cells,
        "engine_queries": engine_cells,
        "geomean_plan_overhead": geomean_plan,
        "geomean_ring_sink_overhead": geomean_ring,
        "geomean_jsonl_sink_overhead": geomean_jsonl,
    }
    REPORT_PATH.write_text(json.dumps(report, indent=2) + "\n")
    assert geomean_plan <= PLAN_OVERHEAD_BAR, plan_cells
    assert geomean_ring <= SINK_OVERHEAD_BAR, engine_cells
