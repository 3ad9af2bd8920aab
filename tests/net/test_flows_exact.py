"""Exact differential test: the allocator against its previous version.

:func:`allocate_rates` counts a link's weight total as
``len(members) * w`` when every flow has the one weight ``w`` (instead of
caching ``math.fsum`` totals in the table), and makes one pass over the
links per filling round.  Neither may change a float:
after every add or remove, a solve over a persistent table must return
the very rates of the verbatim previous allocator
(``reference_flows.cached_allocate_rates``) over its own persistent
table, for integer and fractional weights, a single shared weight,
finite limits and local flows.  The order of the returned dict's keys is
not part of the contract (``NetworkSim`` only looks rates up), so rates
are compared per flow id.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.flows import FlowSpec, FlowTable, allocate_rates

from .reference_flows import CachedFlowTable, cached_allocate_rates

_INF = float("inf")


@st.composite
def churn(draw):
    """Link capacities, candidate flows, and an add/remove schedule."""
    n_links = draw(st.integers(1, 8))
    caps = {lid: draw(st.floats(0.5, 100)) for lid in range(n_links)}
    kind = draw(st.sampled_from(["one", "integer", "fractional"]))
    if kind == "one":
        # 0.1 and 0.7 are weights whose running sums drift from n * w
        weights = st.just(draw(st.one_of(st.sampled_from([0.1, 0.7]),
                                         st.floats(0.1, 10))))
    elif kind == "integer":
        weights = st.integers(1, 5).map(float)
    else:
        weights = st.floats(0.1, 10)
    specs = []
    for fid in range(draw(st.integers(1, 16))):
        # an empty list is a local flow; a repeated link counts once
        links = draw(st.lists(st.integers(0, n_links - 1), max_size=4))
        limit = draw(st.one_of(st.just(_INF), st.floats(0.1, 60)))
        specs.append(FlowSpec(fid, tuple(links), limit, draw(weights)))
    steps = draw(st.lists(st.tuples(st.booleans(), st.integers(0, 99)),
                          min_size=1, max_size=30))
    return caps, specs, steps


def exact(rates):
    """Rates keyed by flow id, each as its exact hex float."""
    return {fid: float(rate).hex() for fid, rate in rates.items()}


@given(churn())
@settings(max_examples=400, deadline=None)
def test_every_solve_equals_the_previous_allocator(net):
    caps, specs, steps = net
    table, ref_table = FlowTable(), CachedFlowTable()
    live, pending = [], list(specs)
    for add, pick in steps:
        if pending and (add or not live):
            spec = pending.pop(0)
            table.add(spec)
            ref_table.add(spec)
            live.append(spec)
        elif live:
            spec = live.pop(pick % len(live))
            table.remove(spec.flow_id)
            ref_table.remove(spec.flow_id)
        got = exact(allocate_rates(table, caps))
        assert got == exact(cached_allocate_rates(ref_table, caps))
        # a table built from scratch gives the same floats
        assert got == exact(allocate_rates(live, caps))


def test_single_weight_totals_are_exact_counts():
    """``n * w`` is the correctly rounded ``math.fsum`` of ``n`` copies of
    ``w``: ten flows of weight 0.1 total 1.0 both ways, where a running
    sum gives 0.9999999999999999."""
    specs = [FlowSpec(fid, (0,), weight=0.1) for fid in range(10)]
    table = FlowTable(specs)
    assert table._weight_total(set(range(10))) == 1.0
    ref = CachedFlowTable(specs)
    assert ref._link_totals() == {0: 1.0}
    assert exact(allocate_rates(table, {0: 7.0})) == \
        exact(cached_allocate_rates(ref, {0: 7.0}))
