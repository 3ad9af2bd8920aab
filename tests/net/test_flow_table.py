"""Differential tests for the persistent :class:`FlowTable`.

``NetworkSim`` keeps one table across rate solves, adding flows as they
start and removing them as they finish.  After every add or remove, a
solve over the table must give the rates the verbatim reference gives
over the live specs (exactly for integer weights, within 1e-12 relative
otherwise), and the same rates, float for float, as a table built from
scratch.  At the simulator level, the persistent table must not move a
simulated float against the from-scratch reference allocator.
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.units import Gbit_per_s
from repro.net import NetworkSim, leaf_spine, netsim
from repro.net.flows import FlowSpec, FlowTable, allocate_rates
from repro.simcore import Simulator

from .reference_flows import reference_allocate_rates

_INF = float("inf")


@st.composite
def churn(draw, integer_weights):
    """Link capacities, candidate flows, and an add/remove schedule."""
    n_links = draw(st.integers(1, 8))
    caps = {lid: draw(st.floats(0.5, 100)) for lid in range(n_links)}
    weights = (st.integers(1, 5).map(float) if integer_weights
               else st.floats(0.1, 10))
    specs = []
    for fid in range(draw(st.integers(1, 16))):
        # a repeated link counts once, as in the reference
        links = draw(st.lists(st.integers(0, n_links - 1), max_size=4))
        limit = draw(st.one_of(st.just(_INF), st.floats(0.1, 60)))
        specs.append(FlowSpec(fid, tuple(links), limit, draw(weights)))
    steps = draw(st.lists(st.tuples(st.booleans(), st.integers(0, 99)),
                          min_size=1, max_size=30))
    return caps, specs, steps


def replay(caps, specs, steps):
    """Apply ``steps`` to one table; yield (table, live specs) after each."""
    table, live, pending = FlowTable(), [], list(specs)
    for add, pick in steps:
        if pending and (add or not live):
            spec = pending.pop(0)
            table.add(spec)
            live.append(spec)
        elif live:
            spec = live.pop(pick % len(live))
            table.remove(spec.flow_id)
        yield table, live


@given(churn(integer_weights=True))
@settings(max_examples=200, deadline=None)
def test_integer_weights_match_reference_after_every_step(net):
    caps, specs, steps = net
    for table, live in replay(caps, specs, steps):
        assert list(table) == live and len(table) == len(live)
        got = allocate_rates(table, caps)
        assert got == reference_allocate_rates(live, caps)
        assert got == allocate_rates(live, caps)


@given(churn(integer_weights=False))
@settings(max_examples=200, deadline=None)
def test_fractional_weights_match_reference_after_every_step(net):
    caps, specs, steps = net
    for table, live in replay(caps, specs, steps):
        got = allocate_rates(table, caps)
        want = reference_allocate_rates(live, caps)
        assert got.keys() == want.keys()
        for fid, rate in want.items():
            assert math.isclose(got[fid], rate, rel_tol=1e-12), fid
        # fsum totals do not depend on the order flows came and went
        assert got == allocate_rates(live, caps)


def test_solve_leaves_the_table_as_it_was():
    caps = {0: 10.0, 1: 4.0}
    table = FlowTable([FlowSpec("a", (0, 1)), FlowSpec("b", (0,)),
                       FlowSpec("c", (1,), limit=1.0, weight=2.0),
                       FlowSpec("local", (), limit=3.0)])
    first = allocate_rates(table, caps)
    assert first == allocate_rates(table, caps)
    assert first == {"a": 3.0, "b": 7.0, "c": 1.0, "local": 3.0}
    assert [s.flow_id for s in table] == ["a", "b", "c", "local"]


def test_table_rejects_bad_flows():
    table = FlowTable([FlowSpec(0, (0,))])
    with pytest.raises(ValueError, match="already in the table"):
        table.add(FlowSpec(0, (1,)))
    with pytest.raises(ValueError, match="nonpositive weight"):
        table.add(FlowSpec(1, (0,), weight=0.0))
    with pytest.raises(KeyError):
        table.remove(7)
    with pytest.raises(KeyError, match="unknown link"):
        allocate_rates(table, {})


def staggered_all_to_all(seed: int):
    """12 mappers x 12 reducers on ``leaf_spine(2, 2, 4)``, starting at
    staggered instants, with a mix of weights {0.5, 1, 2} and limits.
    Returns (repr of the final clock, every transfer's end, link bytes
    in the simulator's own key order)."""
    rng = random.Random(seed)
    topo = leaf_spine(2, 2, 4)
    hosts = topo.hosts
    sim = Simulator()
    net = NetworkSim(sim, topo)
    events = []

    def mapper(m):
        yield sim.timeout(rng.choice([0.0, 0.0, 4e-4, 1.3e-3, 3e-3]))
        for r in range(12):
            if r % 4 == 3:
                yield sim.timeout(rng.uniform(0.0, 2e-3))
            events.append(net.transfer(
                hosts[m % 8], hosts[r % 8], rng.randrange(10_000, 900_000),
                limit=rng.choice([_INF] * 5 + [Gbit_per_s(3)]),
                weight=rng.choice([1.0, 1.0, 1.0, 2.0, 0.5])))

    for m in range(12):
        sim.process(mapper(m))
    sim.run()
    return (repr(sim.now), [ev.value.end for ev in events],
            list(net.link_bytes.items()))


@pytest.mark.parametrize("seed", [3, 11])
def test_netsim_matches_from_scratch_reference(seed, monkeypatch):
    kept = staggered_all_to_all(seed)
    monkeypatch.setattr(
        netsim, "allocate_rates",
        lambda flows, caps: reference_allocate_rates(list(flows), caps))
    scratch = staggered_all_to_all(seed)
    assert kept == scratch
    assert len(kept[1]) == 144
