"""Plans keyed on the query shape: the engine compiles one plan per
``(policy, template, height)`` and binds each request's constants when
the plan runs (:func:`repro.xpath.fingerprint.parameterize`).  Every
constant of a shape shares one compile; operator surfaces still show
the request's own constants; a parameter the user wrote stays
unbound."""

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.cli import main
from repro.core.engine import SecureQueryEngine
from repro.core.materialize import materialize
from repro.core.optimize import Optimizer
from repro.core.options import ExecutionOptions
from repro.core.rewrite import Rewriter
from repro.core.spec import AccessSpec
from repro.dtd.parser import parse_dtd
from repro.errors import XPathEvaluationError
from repro.obs.canary import oracle_answers
from repro.obs.events import QueryEvent, RingBufferSink
from repro.serving.httpd import make_http_server
from repro.serving.protocol import QueryRequest
from repro.serving.server import EngineCatalog, QueryServer
from repro.workloads.hospital import (
    HOSPITAL_DTD_TEXT,
    doctor_spec,
    hospital_document,
    hospital_dtd,
    nurse_spec,
)
from repro.xmlmodel.parser import parse_document
from repro.xmlmodel.serialize import serialize
from repro.xpath.parser import parse_xpath

from tests.unit.test_cli import NURSE_SPEC_TEXT, VALID_DOC

#: Hospital shapes with a constant slot ``{c}`` (some twice).
SHAPES = (
    ("nurse", '//patient[wardNo = "{c}"]/name'),
    ("nurse", '//patient[name = "{c}" or not(wardNo = "{c}")]//bill | '
              '//staffInfo//*[. = "{c}"]'),
    ("doctor", '//dept[.//patient/wardNo = "{c}"]/patientInfo//bill | '
               '//trial/bill'),
    ("doctor", '//*[wardNo = "{c}" or name = "{c}"]//text() | //regular/*'),
)


def _engine():
    dtd = hospital_dtd()
    engine = SecureQueryEngine(dtd)
    engine.register_policy("nurse", nurse_spec(dtd), wardNo="2")
    engine.register_policy("doctor", doctor_spec(dtd))
    return engine


@pytest.fixture()
def engine():
    return _engine()


@pytest.fixture(scope="module")
def document():
    return hospital_document(seed=0)


def _counting(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


class TestOneCompilePerShape:
    N = 50

    def test_fifty_constants_per_shape_compile_each_shape_once(
        self, engine, document, monkeypatch
    ):
        import repro.core.engine as engine_module

        rewrites = _counting(monkeypatch, Rewriter, "rewrite_targets")
        optimizes = _counting(monkeypatch, Optimizer, "optimize")
        compiles = _counting(monkeypatch, engine_module, "compile_path")
        for number in range(self.N):
            for policy, shape in SHAPES:
                text = shape.replace("{c}", "c%d" % number)
                engine.query(policy, text, document)
        entries = engine.plan_cache.entries()
        plans = [plan for entry in entries for plan in entry.plans]
        assert len(entries) == len(SHAPES)
        assert len(rewrites) == len(SHAPES)
        assert len(optimizes) == sum(1 for _, is_text, _ in plans if not is_text)
        assert len(compiles) == len(plans)
        stats = engine.plan_cache_stats()
        assert stats.misses == len(SHAPES)
        assert stats.hits == (self.N - 1) * len(SHAPES)


class TestBoundPlansAnswerLikeTheOracle:
    @pytest.mark.parametrize("policy", ["nurse", "doctor"])
    def test_one_shape_bound_to_equal_and_distinct_constants(
        self, engine, document, policy
    ):
        entry = engine._policy(policy)
        view_tree = materialize(document, entry.view, entry.spec)
        shape = '//patient[wardNo = "{0}"]/name | //patient[wardNo = "{1}"]/name'
        counts = {}
        for pair in (("1", "1"), ("1", "2"), ("2", "2"), ("2", "1")):
            text = shape.format(*pair)
            result = engine.query(policy, text, document)
            expected = sorted(oracle_answers(text, view_tree).elements())
            assert sorted(serialize(node) for node in result) == expected
            counts[pair] = len(result)
        # each distinct constant contributes its own branch's answers
        assert counts[("1", "2")] == counts[("1", "1")] + counts[("2", "2")]
        assert counts[("1", "1")] and counts[("2", "2")]


class TestCompileMemosStayBounded:
    def test_fresh_constants_leave_memos_bounded_by_the_shapes(
        self, engine, document
    ):
        def memo_entries():
            return engine.introspect()["compile_memos"]["entries"]

        per_shape = []
        for policy, shape in SHAPES:
            engine.query(policy, shape.replace("{c}", "first"), document)
            per_shape.append(memo_entries())
        seen = []
        for number in range(200):
            policy, shape = SHAPES[number % len(SHAPES)]
            engine.query(policy, shape.replace("{c}", "n%d" % number), document)
            seen.append(memo_entries())
        assert 0 < max(seen) <= max(per_shape)

    def test_direct_calls_keep_one_call_of_memo(self):
        dtd = hospital_dtd()
        engine = SecureQueryEngine(dtd)
        view = engine.register_policy("nurse", nurse_spec(dtd), wardNo="2")
        rewriter, optimizer = Rewriter(view), Optimizer(dtd)

        def one(number):
            rewritten = rewriter.rewrite(
                parse_xpath('//patient[name = "n%d"]/name' % number)
            )
            optimizer.optimize(rewritten)

        one(0)
        after_one = (rewriter.memo_entries(), optimizer.memo_entries())
        for number in range(1, 200):
            one(number)
        assert (rewriter.memo_entries(), optimizer.memo_entries()) == after_one


class TestOperatorSurfacesShowBoundConstants:
    """The plans run a template compiled for the first constant; every
    operator surface of a later request shows that request's value."""

    WARM = '//patient[name = "k1"]/name'
    QUERY = '//patient[name = "k7"]/name'

    def _warm(self, engine, document):
        engine.query("nurse", self.WARM, document)

    @staticmethod
    def _shows_k7(text):
        return '"k7"' in text and '"k1"' not in text and "$_" not in text

    def test_report(self, engine, document):
        self._warm(engine, document)
        report = engine.query("nurse", self.QUERY, document).report
        assert report.cache_hit
        # the concrete query: the canary evaluates it on the oracle view
        assert report.original == parse_xpath(self.QUERY)
        assert self._shows_k7(str(report.rewritten))
        assert self._shows_k7(str(report.optimized))
        assert self._shows_k7(report.summary())
        exported = report.to_dict()
        assert self._shows_k7(exported["rewritten"])
        assert self._shows_k7(exported["optimized"])

    def test_query_record(self, engine, document):
        self._warm(engine, document)
        records = []
        engine.records.subscribe(records.append)
        engine.query("nurse", self.QUERY, document)
        (record,) = records
        assert self._shows_k7(str(record.rewritten))

    def test_audit_events(self, engine, document):
        self._warm(engine, document)
        ring = engine.add_sink(RingBufferSink(capacity=8))
        engine.query(
            "nurse",
            self.QUERY,
            document,
            options=ExecutionOptions(slow_query_threshold=0.0),
        )
        (event,) = ring.events(kind="query")
        assert isinstance(event, QueryEvent)
        assert self._shows_k7(event.rewritten)
        assert event.slow and self._shows_k7(event.profile)

    def test_debug_traces(self, document):
        engine = _engine()
        catalog = EngineCatalog().add("hospital", engine, document)
        with QueryServer(catalog) as server:
            for text in (self.WARM, self.QUERY):
                response = server.query(
                    QueryRequest(
                        policy="nurse",
                        query=text,
                        document="hospital",
                        options=ExecutionOptions(slow_query_threshold=0.0),
                    )
                )
                assert response.ok
            payload = json.dumps(server.trace_payload())
        assert '\\"k7\\"' in payload and "$_" not in payload

    def test_explain_profile_labels(self, engine, document):
        self._warm(engine, document)
        report = engine.query(
            "nurse",
            self.QUERY,
            document,
            options=ExecutionOptions(trace=True),
        ).report
        rendered = report.profile.render()
        assert "q:equals = 'k7'" in rendered
        assert '"k7"' in rendered and "$_" not in rendered

    def test_cli_explain(self, tmp_path, capsys):
        (tmp_path / "h.dtd").write_text(HOSPITAL_DTD_TEXT)
        (tmp_path / "n.spec").write_text(NURSE_SPEC_TEXT)
        (tmp_path / "d.xml").write_text(VALID_DOC)
        code = main(
            [
                "query",
                str(tmp_path / "h.dtd"),
                str(tmp_path / "n.spec"),
                str(tmp_path / "d.xml"),
                '//patient[name = "ann"]/name',
                "--bind",
                "wardNo=2",
                "--explain",
                "--trace",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "results  : 1" in out
        assert 'patient[name = "ann"]/name' in out.split("optimized:")[1]
        assert "q:equals = 'ann'" in out
        assert "$_" not in out

    def test_substitution_waits_for_a_reader(
        self, engine, document, monkeypatch
    ):
        from repro.xpath import fingerprint

        binds = _counting(monkeypatch, fingerprint, "bind_template")
        self._warm(engine, document)
        result = engine.query("nurse", self.QUERY, document)
        assert binds == []
        assert self._shows_k7(str(result.report.optimized))
        assert len(binds) == 1


@pytest.fixture(scope="module")
def served(document):
    catalog = EngineCatalog().add("hospital", _engine(), document)
    with QueryServer(catalog) as server:
        httpd = make_http_server(server, port=0)
        thread = threading.Thread(target=httpd.serve_forever, daemon=True)
        thread.start()
        try:
            yield catalog, "http://127.0.0.1:%d" % httpd.server_address[1]
        finally:
            httpd.shutdown()
            httpd.server_close()
            thread.join(timeout=5)


def _post(base, payload):
    request = urllib.request.Request(
        base + "/query",
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    try:
        with urllib.request.urlopen(request, timeout=10) as reply:
            return reply.status, json.loads(reply.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


class TestUserWrittenParameters:
    """A ``$name`` the user writes is a value like any constant: it
    takes a template slot, and binding it into the plan raises
    "unbound parameter" with the user's name, the pre-template error."""

    def _fails_on_every_surface(self, served, text, name):
        catalog, base = served
        engine, document = catalog.resolve("hospital")
        with pytest.raises(XPathEvaluationError) as raised:
            engine.query("nurse", text, document)
        assert "unbound parameter $%s" % name in str(raised.value)
        code = raised.value.code
        response = engine.execute_request(
            QueryRequest(policy="nurse", query=text, document="hospital"),
            document,
        )
        assert not response.ok and response.error_code == code
        status, body = _post(
            base, {"policy": "nurse", "query": text, "document": "hospital"}
        )
        assert status == 400
        assert body["error_code"] == code

    def test_a_named_parameter_is_unbound(self, served):
        self._fails_on_every_surface(
            served, "//patient[wardNo = $ward]/name", "ward"
        )

    def test_a_slot_name_cannot_reach_a_template_slot(self, served):
        catalog, _ = served
        engine, document = catalog.resolve("hospital")
        # cache the shape with real constants first: the user's $_0
        # then binds into slot 0 of that same plan, never to a value
        concrete = '//patient[wardNo = "2"]/name | //patient[name = "x"]/name'
        assert engine.query("nurse", concrete, document)
        cached = engine.plan_cache.keys()
        text = '//patient[wardNo = $_0]/name | //patient[name = "x"]/name'
        self._fails_on_every_surface(served, text, "_0")
        assert engine.plan_cache.keys()[-1] == cached[-1]
        assert len(engine.plan_cache) == len(cached)

    @pytest.mark.parametrize(
        "text",
        [
            '//patient[wardNo = $x]/name | //patient[wardNo = "$x"]/name',
            '//patient[wardNo = "$x"]/name | //patient[wardNo = $x]/name',
        ],
    )
    def test_a_parameter_and_its_spelling_as_a_string_stay_apart(
        self, engine, document, text
    ):
        # both orders: one equality label for $x and "$x" once let the
        # optimizer keep the literal branch alone and answer nothing
        with pytest.raises(XPathEvaluationError, match=r"unbound parameter \$x"):
            engine.query("nurse", text, document)


ENUM_DTD = """
<!ELEMENT r (item*)>
<!ELEMENT item (#PCDATA)>
<!ATTLIST item kind (red | blue) #REQUIRED>
"""

ENUM_DOC = (
    '<r><item kind="red">a</item><item kind="blue">b</item>'
    '<item kind="red">c</item></r>'
)


class TestWeakerAllowsPlan:
    """``declaration.allows`` is the one optimizer decision that reads
    a constant.  A template's slot is undecided there, so the shape's
    plan keeps the test a concrete compile would have pruned."""

    def test_declared_and_undeclared_values_share_one_compile(
        self, monkeypatch
    ):
        dtd = parse_dtd(ENUM_DTD)
        spec = AccessSpec(dtd)
        engine = SecureQueryEngine(dtd)
        engine.register_policy("p", spec)
        document = parse_document(ENUM_DOC)
        view_tree = materialize(document, engine._policy("p").view, spec)
        rewrites = _counting(monkeypatch, Rewriter, "rewrite_targets")
        undeclared = '//item[@kind = "green"]'
        # a concrete compile proves the undeclared value empty
        assert Optimizer(dtd).optimize(parse_xpath(undeclared)).is_empty
        answers = {}
        for text in (undeclared, '//item[@kind = "red"]'):
            result = engine.query("p", text, document)
            answers[text] = sorted(serialize(node) for node in result)
            assert answers[text] == sorted(
                oracle_answers(text, view_tree).elements()
            )
        assert answers[undeclared] == []
        assert len(answers['//item[@kind = "red"]']) == 2
        assert len(rewrites) == 1
        stats = engine.plan_cache_stats()
        assert (stats.misses, stats.hits) == (1, 1)
        (entry,) = engine.plan_cache.entries()
        assert "@kind = $_0" in str(entry.optimized)
