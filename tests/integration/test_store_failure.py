"""A failed NodeTable build is an error, not a slower answer.

The engine builds a document's columnar NodeTable on the first
default-path query and has no object-tree fallback for it.  When the
build raises, the query fails through the engine's one error path on
every surface: one record with the raised error's code, one audit
``ErrorEvent`` and nothing else, no interpreter fallback, and nothing
cached, so the next query (once the fault is gone) builds the table
and answers what the materialization oracle answers.
"""

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.core.derive import derive
from repro.core.engine import SecureQueryEngine
from repro.core.materialize import materialize
from repro.errors import error_code
from repro.obs import RingBufferSink, disable_metrics, enable_metrics
from repro.obs.metrics import metrics_registry
from repro.serving.httpd import make_http_server
from repro.serving.protocol import QueryRequest
from repro.serving.server import EngineCatalog, QueryServer
from repro.workloads.hospital import hospital_document, hospital_dtd, nurse_spec
from repro.xmlmodel.serialize import serialize
from repro.xmlmodel.store import NodeTable
from repro.xpath.evaluator import XPathEvaluator
from repro.xpath.parser import parse_xpath

QUERY = "//patient/name"
PATHS = ["direct", "execute_request", "server", "http"]


def _broken_build(self, *args, **kwargs):
    raise RuntimeError("node table build failed")


def _fallbacks():
    counters = metrics_registry().snapshot()["counters"]
    return counters.get("plan.interpreter_fallbacks", 0)


def _post(base, request):
    post = urllib.request.Request(
        base + "/query",
        data=json.dumps(request.to_dict()).encode("utf-8"),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    try:
        with urllib.request.urlopen(post, timeout=10) as reply:
            return reply.status, json.loads(reply.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def _run(path, engine, document, request):
    """One query on ``path``; returns (error code, HTTP status or None)."""
    if path == "direct":
        try:
            engine.query(request.policy, request.query, document)
        except Exception as error:
            return error_code(error), None
        return "", None
    if path == "execute_request":
        # the wire contract: an error response, never an exception
        response = engine.execute_request(request, document)
        assert response.error_message == "internal error"
        return response.error_code, None
    catalog = EngineCatalog().add("hospital", engine, document)
    with QueryServer(catalog) as server:
        if path == "server":
            return server.query(request).error_code, None
        httpd = make_http_server(server, port=0)
        thread = threading.Thread(target=httpd.serve_forever, daemon=True)
        thread.start()
        try:
            base = "http://127.0.0.1:%d" % httpd.server_address[1]
            status, body = _post(base, request)
        finally:
            httpd.shutdown()
            httpd.server_close()
            thread.join(timeout=5)
        assert body["error_message"] == "internal error"
        return body["error_code"], status


def _oracle(dtd, document):
    """``QUERY`` over the materialized view tree: the paper's answer."""
    spec = nurse_spec(dtd).bind(wardNo="2")
    view_tree = materialize(document, derive(spec), spec)
    return sorted(
        serialize(node)
        for node in XPathEvaluator().evaluate(parse_xpath(QUERY), view_tree)
    )


@pytest.mark.parametrize("path", PATHS)
def test_failed_build_fails_the_query_and_caches_nothing(path, monkeypatch):
    dtd = hospital_dtd()
    engine = SecureQueryEngine(dtd)
    engine.register_policy("nurse", nurse_spec(dtd), wardNo="2")
    document = hospital_document(seed=7, max_branch=4)
    request = QueryRequest(policy="nurse", query=QUERY, document="hospital")
    ring = engine.add_sink(RingBufferSink(capacity=64))
    records = []
    engine.records.subscribe(records.append)
    enable_metrics()
    try:
        before = _fallbacks()
        with monkeypatch.context() as patch:
            patch.setattr(NodeTable, "__init__", _broken_build)
            code, status = _run(path, engine, document, request)
        assert _fallbacks() == before
    finally:
        disable_metrics()

    assert code == "E_UNKNOWN"
    if path == "http":
        assert status == 500
    events = ring.events()
    assert [event.kind for event in events] == ["error"]
    assert events[0].code == "E_UNKNOWN"
    assert "node table build failed" in events[0].message
    assert [record.error_code for record in records] == ["E_UNKNOWN"]
    assert engine._stores == {}

    # the fault is gone: the next query builds the table and answers
    answer = engine.query("nurse", QUERY, document)
    assert len(engine._stores) == 1
    assert sorted(serialize(node) for node in answer) == _oracle(dtd, document)
