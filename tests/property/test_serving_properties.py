"""Property-based tests of the serving protocol: round-trip totality
for randomly composed requests.  The answer parity of
``execute_request`` with the materialization oracle is a property in
``test_columnar_properties``.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.options import ExecutionOptions
from repro.serving.protocol import QueryRequest

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
    st.booleans(),
)
def test_request_round_trip_total(label, tenant, use_cache, trace):
    """to_dict/from_dict is the identity for any representable request."""
    request = QueryRequest(
        policy="nurse",
        query="//%s" % label,
        document="hospital",
        tenant=tenant,
        options=ExecutionOptions(use_cache=use_cache, trace=trace),
        request_id=tenant[::-1],
    )
    assert QueryRequest.from_dict(request.to_dict()) == request
