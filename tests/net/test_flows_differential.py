"""Differential test: the allocator against its pre-caching reference.

:func:`allocate_rates` keeps per-link weight totals across filling rounds
instead of re-summing every link every round.  It must return the rates
of the verbatim reference in ``reference_flows.py``: exactly when weights
are integers (every partial sum is exact), within 1e-12 relative
otherwise.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.flows import FlowSpec, allocate_rates

from .reference_flows import reference_allocate_rates

_INF = float("inf")


@st.composite
def random_flows(draw, integer_weights):
    n_links = draw(st.integers(1, 8))
    caps = {lid: draw(st.floats(0.5, 100)) for lid in range(n_links)}
    weights = (st.integers(1, 5).map(float) if integer_weights
               else st.floats(0.1, 10))
    flows = []
    for fid in range(draw(st.integers(1, 14))):
        links = draw(st.lists(st.integers(0, n_links - 1), max_size=4,
                              unique=True))
        limit = draw(st.one_of(st.just(_INF), st.floats(0.1, 60)))
        flows.append(FlowSpec(fid, tuple(links), limit, draw(weights)))
    return flows, caps


@given(random_flows(integer_weights=True))
@settings(max_examples=300, deadline=None)
def test_integer_weights_match_reference_exactly(net):
    flows, caps = net
    assert allocate_rates(flows, caps) == reference_allocate_rates(flows, caps)


@given(random_flows(integer_weights=False))
@settings(max_examples=300, deadline=None)
def test_fractional_weights_match_reference(net):
    flows, caps = net
    got = allocate_rates(flows, caps)
    want = reference_allocate_rates(flows, caps)
    assert got.keys() == want.keys()
    for fid, rate in want.items():
        assert math.isclose(got[fid], rate, rel_tol=1e-12), fid
