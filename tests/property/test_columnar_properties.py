"""Property: the default plan path answers exactly like its references.

The engine runs every view query as a compiled plan over the
document's columnar :class:`~repro.xmlmodel.store.NodeTable`.  Two
references pin its answers:

* the interpreter (:class:`~repro.xpath.evaluator.XPathEvaluator`) for
  each compiled document path — node-for-node, in document order;
* the materialization oracle — the view query evaluated over the
  materialized view tree ``Tv``, the paper's definition of the answer.

Random DAG DTDs, random Y/N policies, random conforming documents, and
random fragment-``C`` queries (with qualifiers) exercise the plan and
engine layers.  The workload queries (Adex Q1-Q4, the hospital suite)
are pinned on every surface: direct, ``execute_request``,
``QueryServer``, and HTTP, none of them falling back to the
interpreter."""

import json
import threading
import urllib.request

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import SecureQueryEngine
from repro.core.materialize import materialize
from repro.core.options import ExecutionOptions
from repro.dtd.generator import DocumentGenerator
from repro.obs import disable_metrics, enable_metrics, metrics_registry
from repro.obs.canary import oracle_answers
from repro.serving.httpd import make_http_server
from repro.serving.protocol import QueryRequest
from repro.serving.server import EngineCatalog, QueryServer
from repro.workloads.adex import adex_engine
from repro.workloads.documents import dataset
from repro.workloads.hospital import nurse_engine
from repro.workloads.queries import ADEX_QUERY_TEXTS, HOSPITAL_QUERY_TEXTS
from repro.xmlmodel.serialize import serialize
from repro.xmlmodel.store import build_node_table
from repro.xpath.evaluator import XPathEvaluator
from repro.xpath.fingerprint import bind_template, parameterize
from repro.xpath.plan import PlanRuntime, compile_path

from tests.property.strategies import (
    annotation_strategy,
    dag_dtd_strategy,
    path_strategy,
)

#: 8.x's wire spelling of the retired materialized execution path
RETIRED_STRATEGY = ExecutionOptions.from_dict({"strategy": "materialized"})


def _rendered(values):
    return [
        value if isinstance(value, str) else serialize(value)
        for value in values
    ]


def _oracle(engine, policy, query, document):
    """``p(Tv)``, sorted: the query over the materialized view of
    ``document`` under the registered ``policy``."""
    entry = engine._policy(policy)
    view_tree = materialize(document, entry.view, entry.spec)
    return sorted(oracle_answers(query, view_tree).elements())


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_columnar_plan_matches_interpreter(data):
    """Plan layer: for random documents and random paths (qualifiers
    included), the columnar kernels return the interpreter's exact
    node list in document order."""
    dtd = data.draw(dag_dtd_strategy())
    seed = data.draw(st.integers(0, 500))
    document = DocumentGenerator(dtd, seed=seed, max_branch=3).generate()
    query = data.draw(
        path_strategy(labels=tuple(dtd.element_types), max_leaves=5)
    )
    expected = XPathEvaluator().evaluate(query, document, ordered=True)
    store = build_node_table(document)
    actual = compile_path(query).execute(
        document, runtime=PlanRuntime(store=store)
    )
    assert [id(node) for node in actual] == [id(node) for node in expected]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_columnar_plan_matches_interpreter_at_inner_contexts(data):
    """Same parity with the frontier seeded at every element of a
    random label, not just the root."""
    dtd = data.draw(dag_dtd_strategy())
    seed = data.draw(st.integers(0, 500))
    document = DocumentGenerator(dtd, seed=seed, max_branch=3).generate()
    labels = tuple(dtd.element_types)
    query = data.draw(path_strategy(labels=labels, max_leaves=4))
    context_label = data.draw(st.sampled_from(labels))
    contexts = document.find_all(context_label)
    expected = XPathEvaluator().evaluate(
        query, list(contexts), ordered=True
    )
    store = build_node_table(document)
    actual = compile_path(query).execute(
        list(contexts), runtime=PlanRuntime(store=store)
    )
    assert [id(node) for node in actual] == [id(node) for node in expected]


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_columnar_engine_is_answer_preserving(data):
    """Engine layer: random policy + random query.  The default path
    equals the materialization oracle (as a set of renderings), every
    per-target plan it ran returns the interpreter's node list for its
    document path, and options carrying the retired ``strategy`` key
    and ``execute_request`` on a fresh engine (cold caches) return the
    default answer exactly."""
    dtd = data.draw(dag_dtd_strategy())
    spec = data.draw(annotation_strategy(dtd))
    seed = data.draw(st.integers(0, 500))
    document = DocumentGenerator(dtd, seed=seed, max_branch=3).generate()
    query = data.draw(
        path_strategy(labels=tuple(dtd.element_types), max_leaves=5)
    )
    engine = SecureQueryEngine(dtd)
    engine.register_policy("p", spec)

    default = engine.query("p", query, document)
    assert sorted(_rendered(default)) == _oracle(engine, "p", query, document)
    retired = engine.query("p", query, document, RETIRED_STRATEGY)
    assert _rendered(retired) == _rendered(default)
    fresh = SecureQueryEngine(dtd)
    fresh.register_policy("p", spec)
    response = fresh.execute_request(
        QueryRequest(policy="p", query=query), document
    )
    assert response.ok and list(response.results) == _rendered(default)

    # the cached plans run the query's template: bind its constants
    (compiled,) = engine.plan_cache.entries()
    _, values = parameterize(query)
    store = build_node_table(document)
    for _, _, plan in compiled.plans:
        expected = XPathEvaluator().evaluate(
            bind_template(plan.path, values), document, ordered=True
        )
        actual = plan.execute(
            document, runtime=PlanRuntime(store=store, params=values)
        )
        assert [id(node) for node in actual] == [id(n) for n in expected]


def _post(base, payload):
    request = urllib.request.Request(
        base + "/query",
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with urllib.request.urlopen(request, timeout=30) as reply:
        return json.loads(reply.read())


def _served(engine, document):
    """(engine, document, QueryServer, HTTP base URL) for one workload,
    torn down after the module."""
    catalog = EngineCatalog().add("doc", engine, document)
    server = QueryServer(catalog)
    server.start()
    httpd = make_http_server(server, port=0)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    base = "http://127.0.0.1:%d" % httpd.server_address[1]
    try:
        yield engine, document, server, base
    finally:
        httpd.shutdown()
        httpd.server_close()
        thread.join(timeout=5)
        server.stop()


@pytest.fixture(scope="module")
def adex():
    yield from _served(adex_engine(), dataset("D1", scale=0.05))


@pytest.fixture(scope="module")
def hospital():
    from repro.workloads.hospital import hospital_document

    yield from _served(nurse_engine(), hospital_document(seed=13, max_branch=4))


def _interpreter_fallbacks():
    counters = metrics_registry().snapshot()["counters"]
    return counters.get("plan.interpreter_fallbacks", 0)


def _every_surface_agrees(served, query):
    """The default answer equals the materialization oracle, and every
    serving surface returns it in the same order, with every plan run
    on the NodeTable (no interpreter fallback)."""
    engine, document, server, base = served
    policy = engine.policies()[0]
    oracle = _oracle(engine, policy, query, document)
    enable_metrics()
    try:
        before = _interpreter_fallbacks()
        direct = _rendered(engine.query(policy, query, document))
        assert sorted(direct) == oracle
        request = QueryRequest(policy=policy, query=query, document="doc")
        response = engine.execute_request(request, document)
        assert list(response.results) == direct
        response = server.query(request)
        assert response.ok and list(response.results) == direct
        body = _post(
            base, {"policy": policy, "query": query, "document": "doc"}
        )
        assert body["ok"] and body["results"] == direct
        assert _interpreter_fallbacks() == before
    finally:
        disable_metrics()


@pytest.mark.parametrize("name", sorted(ADEX_QUERY_TEXTS))
def test_adex_queries_agree(adex, name):
    _every_surface_agrees(adex, ADEX_QUERY_TEXTS[name])


@pytest.mark.parametrize("name", sorted(HOSPITAL_QUERY_TEXTS))
def test_hospital_queries_agree(hospital, name):
    _every_surface_agrees(hospital, HOSPITAL_QUERY_TEXTS[name])


def test_retired_options_still_get_projected_answers(hospital):
    """6.x's ``project: false`` returned raw document subtrees (with
    ``clinicalTrial`` and ``regular``), ``optimize: false`` skipped
    the optimizer and 8.x's ``strategy: "materialized"`` queried a
    cached view tree.  All three keys are now ignored on every
    surface: the answer is the oracle's, projected through the view,
    and the wire report names no execution path."""
    engine, document, server, base = hospital
    query = "/hospital/dept"
    retired = {"project": False, "optimize": False, "strategy": "materialized"}
    oracle = _oracle(engine, "nurse", query, document)
    assert oracle
    request = QueryRequest.from_dict(
        {"policy": "nurse", "query": query, "document": "doc",
         "options": retired}
    )
    assert request.options == ExecutionOptions()
    responses = {
        "execute_request": engine.execute_request(request, document),
        "server": server.query(request),
    }
    answers = {
        surface: response.results for surface, response in responses.items()
    }
    reports = [response.report for response in responses.values()]
    body = _post(
        base,
        {"policy": "nurse", "query": query, "document": "doc",
         "options": retired},
    )
    answers["http"] = body["results"]
    reports.append(body["report"])
    for report in reports:
        assert "strategy" not in report
    for surface, results in answers.items():
        assert sorted(results) == oracle, surface
        for result in results:
            assert "clinicalTrial" not in result, surface
            assert "regular" not in result, surface
