"""Security-property integration tests: no query over the view can
observe confidential labels, content, or structure."""

import pytest

from repro.core.accessibility import compute_accessibility
from repro.core.engine import SecureQueryEngine
from repro.workloads.hospital import hospital_document, hospital_dtd, nurse_spec
from repro.xmlmodel.serialize import serialize

#: A broad battery of probing queries a curious nurse might try.
PROBES = [
    "//clinicalTrial",
    "//trial",
    "//regular",
    "//clinicalTrial//name",
    "dept/clinicalTrial",
    "//*[trial]",
    "//*[regular or trial]",
    "//treatment[trial]/bill",
    "hospital/dept/clinicalTrial/patientInfo",
    "//patient[../../clinicalTrial]",
]

GENERAL_QUERIES = [
    "//patient",
    "//patient/name",
    "//treatment",
    "//*",
    "*",
    "//dummy1",
    "//dummy2",
    "//treatment/*",
    "//patient//*",
    ".",
]


@pytest.fixture(scope="module")
def engine():
    dtd = hospital_dtd()
    built = SecureQueryEngine(dtd)
    built.register_policy("nurse", nurse_spec(dtd), wardNo="2")
    return built


@pytest.fixture(scope="module")
def document():
    return hospital_document(seed=7, max_branch=4)


@pytest.fixture(scope="module")
def accessibility(document):
    spec = nurse_spec(hospital_dtd()).bind(wardNo="2")
    return compute_accessibility(document, spec)


class TestLabelConfidentiality:
    @pytest.mark.parametrize("probe", PROBES)
    def test_probes_return_nothing_or_no_secrets(self, engine, document, probe):
        try:
            results = engine.query("nurse", probe, document)
        except Exception:  # noqa: BLE001 - syntax probes may fail cleanly
            return
        for result in results:
            if isinstance(result, str):
                continue
            rendered = serialize(result)
            for secret in ("clinicalTrial", "<trial", "<regular"):
                assert secret not in rendered, probe

    @pytest.mark.parametrize("query", GENERAL_QUERIES)
    def test_no_secret_labels_in_any_projection(self, engine, document, query):
        for result in engine.query("nurse", query, document):
            if isinstance(result, str):
                continue
            labels = {element.label for element in result.iter_elements()}
            assert not labels & {"clinicalTrial", "trial", "regular"}, query


class TestContentConfidentiality:
    def test_other_ward_patients_invisible(self, engine, document, accessibility):
        visible_names = set()
        for query in GENERAL_QUERIES:
            for result in engine.query("nurse", query, document):
                if isinstance(result, str):
                    continue
                visible_names.update(
                    node.string_value() for node in result.find_all("name")
                )
        hidden_names = {
            node.string_value()
            for node in document.find_all("name")
            if not accessibility[id(node)]
        }
        # names of patients the policy hides never surface
        assert not visible_names & (
            hidden_names
            - {
                node.string_value()
                for node in document.find_all("name")
                if accessibility[id(node)]
            }
        )

    def test_raw_mode_documented_leak_is_projected_away(self, engine, document):
        # the rewritten document query lands on 'regular' elements...
        from repro.xpath.evaluator import evaluate

        raw = evaluate(engine.rewrite_query("nurse", "//dummy2"), document)
        assert any(node.label == "regular" for node in raw)
        # ...which is why every answer is projected:
        projected = engine.query("nurse", "//dummy2", document)
        assert projected
        assert all(element.label == "dummy2" for element in projected)


class TestInferenceControl:
    def test_example_11_queries_coincide(self, engine, document):
        p1 = engine.rewrite_query("nurse", "//dept//patientInfo/patient/name")
        p2 = engine.rewrite_query("nurse", "//dept/patientInfo/patient/name")
        from repro.xpath.evaluator import evaluate

        names_p1 = {id(n) for n in evaluate(p1, document)}
        names_p2 = {id(n) for n in evaluate(p2, document)}
        assert names_p1 == names_p2

    def test_view_dtd_reveals_no_document_structure(self, engine):
        exposed = engine.view_dtd_text("nurse")
        document_only_types = {"clinicalTrial", "trial", "regular"}
        assert not any(name in exposed for name in document_only_types)


class TestMultiPolicyIsolation:
    def test_two_wards_see_disjoint_extra_patients(self, document):
        dtd = hospital_dtd()
        engine = SecureQueryEngine(dtd)
        engine.register_policy("w1", nurse_spec(dtd), wardNo="1")
        engine.register_policy("w2", nurse_spec(dtd), wardNo="2")
        w1 = {
            element.string_value()
            for element in engine.query("w1", "//patient/name", document)
        }
        w2 = {
            element.string_value()
            for element in engine.query("w2", "//patient/name", document)
        }
        # the policies are distinct restrictions; at least one ward must
        # differ on this document (seeded so both wards exist)
        assert w1 != w2 or (not w1 and not w2)

    def test_policies_do_not_interfere(self, document):
        dtd = hospital_dtd()
        solo = SecureQueryEngine(dtd)
        solo.register_policy("nurse", nurse_spec(dtd), wardNo="2")
        multi = SecureQueryEngine(dtd)
        multi.register_policy("nurse", nurse_spec(dtd), wardNo="2")
        from repro.workloads.hospital import doctor_spec

        multi.register_policy("doctor", doctor_spec(dtd))
        lone = solo.query("nurse", "//patient/name", document)
        shared = multi.query("nurse", "//patient/name", document)
        assert [serialize(a) for a in lone] == [serialize(b) for b in shared]


class TestHiddenTextInStringValues:
    """A known leak, older than plans keyed on the query shape: the
    rewriting of ``[p = c]`` compares the *document* string value of
    the nodes ``p`` selects, which includes the text of descendants the
    view hides.  Strict xfail: when the rewriting is fixed this test
    passes, fails as XPASS, and the marker goes."""

    @pytest.mark.xfail(
        strict=True,
        reason="[p = c] reads hidden descendants' text (see CHANGES.md)",
    )
    def test_equality_does_not_see_hidden_text(self):
        from repro.core.materialize import materialize
        from repro.core.spec import AccessSpec
        from repro.dtd.parser import parse_dtd
        from repro.obs.canary import oracle_answers
        from repro.xmlmodel.parser import parse_document

        dtd = parse_dtd(
            "<!ELEMENT t0 (t1)><!ELEMENT t1 (t2)><!ELEMENT t2 (#PCDATA)>"
        )
        spec = AccessSpec(dtd)
        spec.annotate("t1", "t2", "N")
        engine = SecureQueryEngine(dtd)
        engine.register_policy("p", spec)
        document = parse_document("<t0><t1><t2>secret</t2></t1></t0>")
        view_tree = materialize(document, engine._policy("p").view, spec)
        query = '*[. = "secret"]'
        assert not oracle_answers(query, view_tree)  # the view's t1 is empty
        assert engine.query("p", query, document) == []
