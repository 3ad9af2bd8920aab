"""Pinned simulated results of a seeded all-to-all shuffle.

The flow model's contract is that a change to how rates are computed
leaves simulated time bit-identical.  ``pinned_all_to_all.json`` holds
the results this scenario produced before the network model was made
cheap (interned link ids, one solve per start wave, one waker); the test
checks the current model reproduces them exactly, float for float.
"""

import json
import os
import random

from repro.common.units import Gbit_per_s
from repro.net import NetworkSim, leaf_spine
from repro.simcore import Simulator

PINNED = os.path.join(os.path.dirname(__file__), "data",
                      "pinned_all_to_all.json")


def all_to_all(seed: int = 16):
    """16 mappers x 16 reducers on the 8 hosts of ``leaf_spine(2, 2, 4)``.

    Mappers start in waves (several at one timestamp), and each issues
    its 16 fetches at once, so many flows start at the same instant.
    Some flows carry a weight or a rate limit; mapper and reducer on one
    host make a local copy.  Returns (repr of the final clock, end time
    of every transfer in (mapper, reducer) order, per-link bytes sorted
    by link endpoints).
    """
    rng = random.Random(seed)
    topo = leaf_spine(2, 2, 4)
    hosts = topo.hosts
    sim = Simulator()
    net = NetworkSim(sim, topo)
    starts = [rng.choice([0.0, 1e-3, 2.5e-3]) for _ in range(16)]
    plan = [[(rng.randrange(50_000, 2_000_000),
              rng.choice([1.0, 1.0, 1.0, 2.0, 0.5]),
              rng.choice([float("inf")] * 4 + [Gbit_per_s(2)]))
             for _ in range(16)] for _ in range(16)]
    events = {}

    def mapper(m):
        yield sim.timeout(starts[m])
        for r, (size, weight, limit) in enumerate(plan[m]):
            events[m, r] = net.transfer(hosts[m % 8], hosts[r % 8], size,
                                        limit=limit, weight=weight)

    for m in range(16):
        sim.process(mapper(m))
    sim.run()
    ends = [events[m, r].value.end for m in range(16) for r in range(16)]
    link_bytes = sorted((sorted(key), carried)
                        for key, carried in net.link_bytes.items())
    return repr(sim.now), ends, link_bytes


def test_all_to_all_matches_pinned_results():
    now, ends, link_bytes = all_to_all()
    with open(PINNED) as fh:
        pinned = json.load(fh)
    assert now == pinned["now"]
    assert ends == pinned["ends"]
    assert [[pair, carried] for pair, carried in link_bytes] \
        == pinned["link_bytes"]
