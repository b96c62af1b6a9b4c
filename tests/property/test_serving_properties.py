"""Property-based tests of the serving layer.

The load-bearing invariant: batched execution is *pure optimization* —
``engine.query_batch(qs)`` answers exactly like ``[engine.query(q) for
q in qs]`` for random query batches, across every execution strategy
(the shared scan cache must never change an answer).  Plus protocol
round-trip totality for randomly composed requests.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import SecureQueryEngine
from repro.core.options import ExecutionOptions
from repro.serving.protocol import QueryRequest
from repro.workloads.hospital import (
    hospital_document,
    hospital_dtd,
    nurse_spec,
)
from repro.xmlmodel.serialize import serialize

from tests.property.strategies import path_strategy

HOSPITAL_LABELS = (
    "dept",
    "patientInfo",
    "patient",
    "name",
    "wardNo",
    "treatment",
    "dummy1",
    "dummy2",
    "bill",
    "medication",
    "staffInfo",
    "staff",
)

_DOCUMENTS = {}


def _document(seed):
    if seed not in _DOCUMENTS:
        _DOCUMENTS[seed] = hospital_document(seed=seed, max_branch=3)
    return _DOCUMENTS[seed]


def _engine():
    dtd = hospital_dtd()
    engine = SecureQueryEngine(dtd)
    engine.register_policy("nurse", nurse_spec(dtd), wardNo="2")
    return engine


def _canonical(values):
    return [
        value if isinstance(value, str) else serialize(value)
        for value in values
    ]


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        path_strategy(labels=HOSPITAL_LABELS, max_leaves=5),
        min_size=1,
        max_size=6,
    ),
    st.sampled_from([0, 7, 13]),
    st.sampled_from(["virtual", "columnar"]),
)
def test_query_batch_parity(queries, seed, strategy):
    """query_batch == [query(q) for q in batch], any strategy, any
    random batch (including batches with repeated queries)."""
    engine = _engine()
    document = _document(seed)
    options = ExecutionOptions(strategy=strategy)
    individually = [
        _canonical(engine.query("nurse", q, document, options=options))
        for q in queries
    ]
    # a fresh engine, so the batch path also covers cold caches
    batch_engine = _engine()
    batched = batch_engine.query_batch(
        "nurse", queries, document, options=options
    )
    assert [_canonical(result) for result in batched] == individually


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        path_strategy(labels=HOSPITAL_LABELS, max_leaves=5),
        min_size=2,
        max_size=5,
    ),
    st.sampled_from([7, 21]),
)
def test_execute_batch_matches_individual_requests(queries, seed):
    """The request-level batch API (the server's path, shared scan
    cache included) agrees with one-at-a-time execute_request."""
    engine = _engine()
    document = _document(seed)
    columnar = ExecutionOptions(strategy="columnar")
    requests = [
        QueryRequest(
            policy="nurse", query=q, options=columnar, request_id=str(i)
        )
        for i, q in enumerate(queries)
    ]
    lone_engine = _engine()
    individually = [
        lone_engine.execute_request(request, document) for request in requests
    ]
    batched = engine.execute_batch(requests, document)
    assert [r.results for r in batched] == [r.results for r in individually]
    assert [r.ok for r in batched] == [r.ok for r in individually]


@settings(max_examples=50, deadline=None)
@given(
    st.sampled_from(HOSPITAL_LABELS),
    st.text(
        alphabet=st.characters(
            whitelist_categories=("L", "N"), max_codepoint=0x7F
        ),
        max_size=12,
    ),
    st.booleans(),
    st.sampled_from(["virtual", "columnar", "materialized"]),
)
def test_request_round_trip_total(label, tenant, use_cache, strategy):
    """to_dict/from_dict is the identity for any representable request."""
    request = QueryRequest(
        policy="nurse",
        query="//%s" % label,
        document="hospital",
        tenant=tenant,
        options=ExecutionOptions(strategy=strategy, use_cache=use_cache),
        request_id=tenant[::-1],
    )
    assert QueryRequest.from_dict(request.to_dict()) == request
