"""The three request pools and their oracle answers.

A workload is one *block*: one request of every query shape the
workload uses, so any whole number of blocks has the same cost mix.
Each client replays the block over and over, every time in a new
order drawn from a generator seeded by the run's seed and the client,
and a client always finishes the block it is in when the measured
phase ends.  A request's latency depends on the one sent before it,
so one fixed order for a whole run moved the median latency with the
seed; fresh orders mix every predecessor into every run alike.  The
seed only orders requests (and, for ``compile-miss``, names the
constants); the documents are those ``repro serve`` builds at its
default ``--seed 0``, so every seed loads the server the same way.

A query may hold the placeholder ``{c}``.  Each time such a request is
sent, the placeholder gets a constant no other request of the run has,
so its query text never repeats and nothing the engine memoizes for
one request serves another.

The single-client workloads use blocks of an odd size, which keeps
the median inside one shape's cluster of latencies instead of on the
gap between two clusters.
"""

from __future__ import annotations

import random
from itertools import count
from typing import Dict, Iterable, Iterator, List, NamedTuple, Tuple

HOSPITAL_REF = "hospital"
ADEX_REF = "adex"
BUYER = "real-estate-buyer"

#: Stands for a constant that is new each time the request is sent.
FRESH = "{c}"


class Request(NamedTuple):
    policy: str
    query: str
    document: str

    def fresh(self, constant: str) -> "Request":
        """This request with ``constant`` in place of ``{c}``."""
        return self._replace(query=self.query.replace(FRESH, constant))


class Workload(NamedTuple):
    name: str
    clients: int
    #: The fixed percentile behind ``latency_tail_ms``: the highest one
    #: with at least ten samples beyond it at the request count one
    #: ``run.SPAN_SECONDS`` span of the measured phase reaches.
    tail_percentile: float
    block: List[Request]
    #: Cheap shapes with ``{c}``, one per engine, for :meth:`fill`.
    fill_shapes: Tuple[Request, ...] = ()

    def stream(self, seed: int, client: int) -> Iterator[List[Request]]:
        """``client``'s blocks, each in a new seeded order, without end;
        each ``{c}`` gets a constant made of the seed, the client and a
        running number."""
        rng = random.Random("%s/%d/%d" % (self.name, seed, client))
        sent = count()
        while True:
            order = list(self.block)
            rng.shuffle(order)
            yield [
                request.fresh("s%dc%dn%d" % (seed, client, next(sent)))
                for request in order
            ]

    def warmup(self, prefix: str) -> List[Request]:
        """One request of every shape; ``prefix`` names the constants."""
        return [
            request.fresh("%s%d" % (prefix, number))
            for number, request in enumerate(self.block)
        ]

    def fill(self, capacity: int, prefix: str) -> List[Request]:
        """``capacity`` fresh requests of each fill shape, sent untimed so
        every engine's plan cache is full when the measured phase starts
        and every measured request evicts an entry."""
        return [
            shape.fresh("%s%d-%d" % (prefix, index, number))
            for index, shape in enumerate(self.fill_shapes)
            for number in range(capacity)
        ]


ADEX_PROJECT = (
    "//buyer-info/contact-info",
    "//house/r-e.warranty | //apartment/r-e.warranty",
    "//buyer-info[//company-id and //contact-info]",
    "//real-estate[house/r-e.asking-price and apartment/r-e.unit-type]",
)

#: Ad-hoc tenant shapes for ``compile-miss``: qualifiers with
#: ``and``/``or``/``not``, unions, ``*`` and ``//`` steps.  Seven run on
#: the hospital engine and six on the Adex engine.  With a new constant
#: ``{c}``, each misses the plan cache and takes about 1 to 37 ms on a
#: 2-core x86 box, nearly all of it compiling; a warm run takes under
#: 2 ms.  The constants match no value in either document.
COMPILE_SHAPES = (
    ("nurse", HOSPITAL_REF,
     '//dept[patientInfo/patient/name = "{c}"]//staff/* | '
     '//patient[wardNo = "{c}"]/name'),
    ("nurse", HOSPITAL_REF,
     '//patient[name = "{c}" or not(wardNo = "{c}")]//bill | '
     '//staffInfo//*[. = "{c}"]'),
    ("nurse", HOSPITAL_REF,
     '//*[name = "{c}"]//bill | //*[wardNo = "{c}"]//medication | '
     '//staff/*'),
    ("doctor", HOSPITAL_REF,
     '//dept[.//patient/wardNo = "{c}"]/patientInfo//bill | //trial/bill'),
    ("doctor", HOSPITAL_REF,
     '//clinicalTrial//patient[name = "{c}"]/name | '
     '//patientInfo/patient[wardNo = "{c}"]//medication'),
    ("doctor", HOSPITAL_REF,
     '//*[wardNo = "{c}" or name = "{c}"]//text() | //regular/*'),
    ("doctor", HOSPITAL_REF,
     '//dept//*[bill = "{c}" and not(medication)] | //clinicalTrial//wardNo'),
    (BUYER, ADEX_REF,
     '//house[r-e.warranty = "{c}"]//text() | '
     '//apartment[not(r-e.rent = "{c}")]/r-e.location/text()'),
    (BUYER, ADEX_REF,
     '//house[r-e.unit-type = "{c}" or r-e.warranty = "{c}"]'
     '/r-e.location/text() | //apartment[r-e.rent = "{c}"]/*'),
    (BUYER, ADEX_REF,
     '//*[r-e.unit-type = "{c}"]/r-e.asking-price/text() | '
     '//buyer-info[company-id = "{c}"]/company-id/text()'),
    (BUYER, ADEX_REF,
     '//buyer-info[contact-info/person-name = "{c}"]//phone/text() | '
     '//house[r-e.unit-type = "{c}"]/r-e.warranty/text()'),
    (BUYER, ADEX_REF,
     '//buyer-info[contact-info[city = "{c}" or phone = "{c}"]]'
     '/company-id/text()'),
    (BUYER, ADEX_REF,
     '//real-estate[house/r-e.unit-type = "{c}" or '
     'apartment/r-e.rent = "{c}"]//r-e.asking-price/text()'),
)

#: One cheap shape per engine of ``compile-miss`` (a millisecond or two
#: to compile), enough to fill a plan cache quickly.
COMPILE_FILL = (
    Request("nurse", '//patient[name = "{c}"]/name', HOSPITAL_REF),
    Request(BUYER, '//house[r-e.unit-type = "{c}"]/r-e.location/text()', ADEX_REF),
)


def _hospital_block() -> List[Request]:
    from repro.workloads.queries import HOSPITAL_QUERY_TEXTS

    return [
        Request(policy, text, HOSPITAL_REF)
        for text in HOSPITAL_QUERY_TEXTS.values()
        for policy in ("nurse", "doctor")
    ]


def workload(name: str) -> Workload:
    """The named workload's pool."""
    if name == "adex-project":
        # Q4 twice: with five requests a block the median lands in the
        # middle of Q2's cluster of latencies, the tail in Q1/Q3's.
        queries = ADEX_PROJECT + ADEX_PROJECT[3:]
        return Workload(name, 1, 74.0, [
            Request(BUYER, text, ADEX_REF) for text in queries
        ])
    if name == "hospital-small":
        return Workload(name, 2, 98.8, _hospital_block())
    if name == "compile-miss":
        block = [Request(policy, shape, ref) for policy, ref, shape in COMPILE_SHAPES]
        return Workload(name, 1, 94.0, block, COMPILE_FILL)
    raise KeyError(name)


WORKLOADS = ("adex-project", "hospital-small", "compile-miss")


# -- oracle -----------------------------------------------------------------


def _policies() -> Dict[Tuple[str, str], tuple]:
    """(policy, document ref) -> (document, view, concrete spec), built
    the way ``repro serve``'s standard catalog registers them."""
    from repro.core.derive import derive
    from repro.workloads.adex import adex_document, adex_dtd, adex_spec
    from repro.workloads.hospital import (
        doctor_spec,
        hospital_document,
        hospital_dtd,
        nurse_spec,
    )

    hospital = hospital_document(seed=0)
    nurse = nurse_spec(hospital_dtd()).bind(wardNo="2")
    doctor = doctor_spec(hospital_dtd())
    buyer = adex_spec(adex_dtd())
    return {
        ("nurse", HOSPITAL_REF): (hospital, derive(nurse), nurse),
        ("doctor", HOSPITAL_REF): (hospital, derive(doctor), doctor),
        (BUYER, ADEX_REF): (adex_document(seed=0), derive(buyer), buyer),
    }


class Oracle(object):
    """Each request's expected ``results``, sorted: the query evaluated
    over the materialized view tree ``Tv``, each answer serialized the
    way ``QueryResponse.results`` serializes it.  View trees and answers
    are kept, so asking again is free."""

    def __init__(self) -> None:
        self._policies: Dict[Tuple[str, str], tuple] = {}
        self._trees: Dict[Tuple[str, str], object] = {}
        self._answers: Dict[Request, List[str]] = {}

    def answers(self, requests: Iterable[Request]) -> Dict[Request, List[str]]:
        from repro.core.materialize import materialize
        from repro.xmlmodel.serialize import serialize
        from repro.xpath.evaluator import XPathEvaluator
        from repro.xpath.parser import parse_xpath

        evaluator = XPathEvaluator()
        for request in requests:
            if request in self._answers:
                continue
            key = (request.policy, request.document)
            if key not in self._trees:
                if not self._policies:
                    self._policies = _policies()
                self._trees[key] = materialize(*self._policies[key])
            nodes = evaluator.evaluate(parse_xpath(request.query), self._trees[key])
            self._answers[request] = sorted(
                serialize(node) if node.is_element else node.value
                for node in nodes
            )
        return self._answers
