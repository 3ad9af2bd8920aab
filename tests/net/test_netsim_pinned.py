"""Pinned simulated results of a seeded all-to-all shuffle.

The flow model's contract is that a change to how rates are computed
leaves simulated time bit-identical.  ``pinned_all_to_all.json`` holds
the clock and transfer ends this scenario produced before the network
model was made cheap (interned link ids, one solve per start wave, one
waker); the test checks the current model reproduces them exactly, float
for float.  Its per-link bytes are the exact ledger (each finished flow
charges its size once per link), re-derived here from the plan alone.
"""

import json
import os
import random
from collections import defaultdict

from repro.common.units import Gbit_per_s
from repro.net import NetworkSim, leaf_spine
from repro.simcore import Simulator

PINNED = os.path.join(os.path.dirname(__file__), "data",
                      "pinned_all_to_all.json")


def scenario(seed: int = 16):
    """Mapper start times and the (size, weight, limit) of every
    (mapper, reducer) transfer."""
    rng = random.Random(seed)
    starts = [rng.choice([0.0, 1e-3, 2.5e-3]) for _ in range(16)]
    plan = [[(rng.randrange(50_000, 2_000_000),
              rng.choice([1.0, 1.0, 1.0, 2.0, 0.5]),
              rng.choice([float("inf")] * 4 + [Gbit_per_s(2)]))
             for _ in range(16)] for _ in range(16)]
    return starts, plan


def all_to_all(seed: int = 16, sample_at=()):
    """16 mappers x 16 reducers on the 8 hosts of ``leaf_spine(2, 2, 4)``.

    Mappers start in waves (several at one timestamp), and each issues
    its 16 fetches at once, so many flows start at the same instant.
    Some flows carry a weight or a rate limit; mapper and reducer on one
    host make a local copy.  Returns (repr of the final clock, end time
    of every transfer in (mapper, reducer) order, per-link bytes sorted
    by link endpoints, and ``net.link_bytes`` read at each time in
    ``sample_at``).
    """
    starts, plan = scenario(seed)
    topo = leaf_spine(2, 2, 4)
    hosts = topo.hosts
    sim = Simulator()
    net = NetworkSim(sim, topo)
    events = {}
    samples = []

    def mapper(m):
        yield sim.timeout(starts[m])
        for r, (size, weight, limit) in enumerate(plan[m]):
            events[m, r] = net.transfer(hosts[m % 8], hosts[r % 8], size,
                                        limit=limit, weight=weight)

    def sampler():
        for t in sample_at:
            yield sim.timeout(t - sim.now)
            samples.append(net.link_bytes)

    for m in range(16):
        sim.process(mapper(m))
    if sample_at:
        sim.process(sampler())
    sim.run()
    ends = [events[m, r].value.end for m in range(16) for r in range(16)]
    return repr(sim.now), ends, by_endpoints(net.link_bytes), samples


def by_endpoints(link_bytes):
    return sorted((sorted(key), carried) for key, carried in link_bytes.items())


def planned_link_bytes(seed: int = 16):
    """Sum of transfer sizes per link, from the plan alone: mappers issue
    in (start, mapper) order, and each network transfer takes the next
    flow id, which picks its ECMP path."""
    starts, plan = scenario(seed)
    topo = leaf_spine(2, 2, 4)
    hosts = topo.hosts
    total = defaultdict(int)
    fid = 0
    for m in sorted(range(16), key=lambda m: (starts[m], m)):
        for r, (size, _, _) in enumerate(plan[m]):
            src, dst = hosts[m % 8], hosts[r % 8]
            if src == dst:
                continue
            for link in topo.path(src, dst, flow_id=fid):
                total[link.key] += size
            fid += 1
    return by_endpoints(total)


def test_all_to_all_matches_pinned_results():
    now, ends, link_bytes, _ = all_to_all()
    with open(PINNED) as fh:
        pinned = json.load(fh)
    assert now == pinned["now"]
    assert ends == pinned["ends"]
    assert [[pair, carried] for pair, carried in link_bytes] \
        == pinned["link_bytes"]
    assert pinned["link_bytes"] == [[pair, carried] for pair, carried
                                    in planned_link_bytes()]


def test_link_bytes_read_mid_run_never_decrease():
    with open(PINNED) as fh:
        pinned = json.load(fh)
    end = float(pinned["now"])
    # evenly spread reads, the instants the mapper waves start, and every
    # transfer's end (read just before the waker completes the flow)
    sample_at = sorted({end * i / 64 for i in range(64)} | {1e-3, 2.5e-3}
                       | set(pinned["ends"]))
    now, ends, link_bytes, samples = all_to_all(sample_at=sample_at)
    assert now == pinned["now"]
    assert ends == pinned["ends"]
    assert len(samples) == len(sample_at)
    final = {tuple(pair): carried for pair, carried in link_bytes}
    last = {}
    for reading in samples:
        for pair, carried in by_endpoints(reading):
            pair = tuple(pair)
            assert last.get(pair, 0.0) <= carried <= final[pair]
            last[pair] = carried
    # reads before the first network transfer finished count the bytes
    # of flows still in flight
    first_end = min(ends[m * 16 + r] for m in range(16) for r in range(16)
                    if m % 8 != r % 8)
    early = [sum(reading.values())
             for t, reading in zip(sample_at, samples) if t < first_end]
    assert max(early) > 0
