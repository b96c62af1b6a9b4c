"""The central correctness theorem, exercised broadly:

    for every query p over the view:   p(Tv)  ==  rewrite(p)(T)

where the engine's answer runs each element target's optimized
path, so optimize preserves the answer too.  Runs a grid of
queries x documents x policies over both workloads and the recursive
catalog DTD.
"""

import pytest

from repro.core.derive import derive
from repro.core.materialize import materialize
from repro.core.spec import AccessSpec
from repro.dtd.generator import DocumentGenerator
from repro.workloads.hospital import doctor_spec, hospital_document
from repro.xpath.evaluator import XPathEvaluator
from repro.xpath.parser import parse_xpath

NURSE_QUERIES = [
    "//patient/name",
    "//patient//bill",
    "dept/patientInfo/patient/name",
    "//dummy1/bill",
    "//dummy2/medication",
    "//treatment/*",
    "//staffInfo//doctor | //staffInfo//nurse",
    "//patient[treatment/dummy1]/name",
    "//patient[not(treatment/dummy1)]/name",
    'dept/patientInfo/patient[wardNo = "2"]',
    "//*[medication]",
    "/hospital/dept/staffInfo",
    "dept[staffInfo/staff]/patientInfo/patient/name",
    "//patient[name and wardNo]/treatment",
    "*/*",
    ".",
    "//name/text()",
]

DOCTOR_QUERIES = [
    "//clinicalTrial//name",
    "//patient/name",
    "dept/clinicalTrial/patientInfo/patient/name",
    "//treatment/trial/bill",
    "//patient[treatment/regular/medication]/name",
    "//*[wardNo = \"2\"]/name",
]


def run_oracle(document, view, spec, query_texts):
    """Compare ``p(Tv)`` against the engine's answer for every query.

    Results over the view are view elements; results over the document
    are *projected through the view* (as the engine does for users),
    so both sides serialize identically when the rewriting is correct.
    """
    from repro.core.engine import SecureQueryEngine
    from repro.xmlmodel.serialize import serialize

    view_tree = materialize(document, view, spec)
    engine = SecureQueryEngine(spec.dtd)
    engine.register_policy("oracle", spec)
    evaluator = XPathEvaluator()
    for text in query_texts:
        query = parse_xpath(text)
        expected = sorted(
            serialize(node) if node.is_element else node.value
            for node in evaluator.evaluate(query, view_tree)
        )
        actual = sorted(
            value if isinstance(value, str) else serialize(value)
            for value in engine.query("oracle", query, document)
        )
        assert expected == actual, text


class TestNursePolicy:
    @pytest.mark.parametrize("seed", [0, 7, 13, 21, 35])
    def test_oracle_grid(self, nurse, nurse_view, seed):
        document = hospital_document(seed=seed, max_branch=4)
        run_oracle(document, nurse_view, nurse, NURSE_QUERIES)


class TestDoctorPolicy:
    @pytest.mark.parametrize("seed", [3, 9, 17])
    def test_oracle_grid(self, hospital, seed):
        spec = doctor_spec(hospital)
        view = derive(spec)
        document = hospital_document(seed=seed, max_branch=4)
        run_oracle(document, view, spec, DOCTOR_QUERIES)


class TestAdexPolicy:
    QUERIES = [
        "//buyer-info/contact-info",
        "//house/r-e.warranty | //apartment/r-e.warranty",
        "//buyer-info[//company-id and //contact-info]",
        "//real-estate/*",
        "//r-e.location",
        "//house[r-e.asking-price]/r-e.location",
        "*/*",
        "//contact-info/phone/text()",
    ]

    @pytest.mark.parametrize("seed", [1, 5])
    def test_oracle_grid(self, adex, adex_policy, adex_view, seed):
        from repro.workloads.adex import adex_document

        document = adex_document(seed=seed, buyers=10, ads=30)
        run_oracle(document, adex_view, adex_policy, self.QUERIES)


class TestRecursivePolicy:
    QUERIES = ["//b", "//dummy1//b", "//dummy2//b", "*", "//dummy1[b]/b"]

    @pytest.mark.parametrize("seed", [0, 4, 8, 12, 16])
    def test_oracle_grid(self, recursive_dtd, recursive_spec, recursive_view, seed):
        document = DocumentGenerator(
            recursive_dtd, seed=seed, max_depth=12
        ).generate()
        run_oracle(document, recursive_view, recursive_spec, self.QUERIES)


class TestCatalogPolicy:
    def test_deep_catalog(self):
        from repro.dtd.parser import parse_dtd

        dtd = parse_dtd(
            """
            <!ELEMENT catalog (assembly*)>
            <!ELEMENT assembly (part, children)>
            <!ELEMENT children (assembly*)>
            <!ELEMENT part (#PCDATA)>
            """
        )
        spec = AccessSpec(dtd, name="flat")
        spec.annotate("assembly", "children", "N")
        spec.annotate("children", "assembly", "Y")
        view = derive(spec)
        for seed in (2, 5, 9):
            document = DocumentGenerator(
                dtd, seed=seed, max_branch=2, max_depth=10
            ).generate()
            run_oracle(
                document,
                view,
                spec,
                ["//part", "assembly/assembly/part", "//assembly[part]/part"],
            )
