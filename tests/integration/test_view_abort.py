"""A view abort reaches the tenant as one fixed message.

DTD ``r -> (a, b)`` with ``ann(r, a) = [text() = "keep"]``: the view
keeps the production ``r -> (a, b)``, so on ``<r><a>drop</a>...`` the
Section 3.3 rules abort at the root (sigma(r, a) extracts no
accessible ``a``).  The abort's own message names the sigma edge, a
document label and a node count; a tenant reads only
:data:`~repro.serving.protocol.MATERIALIZE_MESSAGE`, on every served
path, while the query's record keeps the detail for operators.
"""

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.core.engine import SecureQueryEngine
from repro.core.spec import AccessSpec
from repro.dtd.parser import parse_dtd
from repro.errors import MaterializationAborted
from repro.serving.httpd import make_http_server
from repro.serving.protocol import MATERIALIZE_MESSAGE, QueryRequest
from repro.serving.server import EngineCatalog, QueryServer
from repro.xmlmodel.parser import parse_document

DTD_TEXT = """
<!ELEMENT r (a, b)>
<!ELEMENT a (#PCDATA)>
<!ELEMENT b (#PCDATA)>
"""

DETAIL = "sigma(r, a) produced 0 nodes at a 'r' element (exactly one required)"


def _engine():
    dtd = parse_dtd(DTD_TEXT)
    spec = AccessSpec(dtd, name="guarded")
    spec.annotate("r", "a", '[text() = "keep"]')
    engine = SecureQueryEngine(dtd)
    engine.register_policy("guarded", spec)
    return engine


@pytest.fixture()
def served():
    engine = _engine()
    records = []
    engine.records.subscribe(records.append)
    catalog = (
        EngineCatalog()
        .add("drop", engine, parse_document("<r><a>drop</a><b>x</b></r>"))
        .add("keep", engine, parse_document("<r><a>keep</a><b>x</b></r>"))
    )
    with QueryServer(catalog) as server:
        httpd = make_http_server(server, port=0)
        thread = threading.Thread(target=httpd.serve_forever, daemon=True)
        thread.start()
        try:
            yield server, "http://127.0.0.1:%d" % httpd.server_address[1], records
        finally:
            httpd.shutdown()
            httpd.server_close()
            thread.join(timeout=5)
            assert not thread.is_alive()


def _post(base, request):
    post = urllib.request.Request(
        base + "/query",
        data=json.dumps(request.to_dict()).encode("utf-8"),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    try:
        with urllib.request.urlopen(post, timeout=10) as reply:
            return json.loads(reply.read())
    except urllib.error.HTTPError as error:
        return json.loads(error.read())


def _ask(path, server, base, request):
    if path == "server":
        return server.query(request).to_dict()
    return _post(base, request)


def test_the_abort_itself_carries_the_detail():
    engine = _engine()
    with pytest.raises(MaterializationAborted) as excinfo:
        engine.query(
            "guarded", "/r", parse_document("<r><a>drop</a><b>x</b></r>")
        )
    assert str(excinfo.value) == DETAIL


@pytest.mark.parametrize("path", ["server", "http"])
def test_tenant_reads_one_fixed_message(served, path):
    server, base, records = served
    request = QueryRequest(policy="guarded", query="/r", document="drop")
    body = _ask(path, server, base, request)
    assert not body["ok"]
    assert body["error_code"] == "E_MATERIALIZE"
    assert body["error_message"] == MATERIALIZE_MESSAGE
    for leaked in ("sigma", "'r'", "nodes"):
        assert leaked not in json.dumps(body)
    # the operator side keeps the detail
    assert records[-1].error_code == "E_MATERIALIZE"
    assert records[-1].error_message == DETAIL


@pytest.mark.parametrize("path", ["server", "http"])
def test_the_same_query_answers_where_the_view_does_not_abort(served, path):
    server, base, _ = served
    for document, query in (("keep", "/r"), ("drop", "//b"), ("keep", "//b")):
        request = QueryRequest(policy="guarded", query=query, document=document)
        body = _ask(path, server, base, request)
        assert body["ok"], body
        assert body["results"]
