"""Pinned end times of a seeded processor-sharing contention run.

``FluidResource`` re-plans its next completion on every arrival,
departure and capacity change.  ``data/pinned_fluid_contention.json``
holds the end time of every job in this scenario as the resource
produced it before its wake-up mechanism was touched; the test checks
the current resource reproduces them exactly, float for float.
"""

import json
import os
import random

from repro.cluster.fluid import FluidResource
from repro.simcore import Simulator

PINNED = os.path.join(os.path.dirname(__file__), "data",
                      "pinned_fluid_contention.json")


def contention(seed: int = 9):
    """40 jobs arriving in bursts on one resource of capacity 100.

    Arrivals are staggered (several jobs share some arrival instants),
    a quarter of the jobs carry a weight other than 1, a few submit zero
    work, and the capacity halves at t = 1.5 while jobs are in service.
    Returns (repr of the final clock, repr of every job's end time in
    submission order, total work served).
    """
    rng = random.Random(seed)
    sim = Simulator()
    res = FluidResource(sim, 100.0, name="disk")
    plan = [(rng.choice([0.0, 0.0, 0.25, 0.5, 0.8, 1.2, 1.5, 2.0])
             + rng.randrange(4) * 0.1,
             0.0 if rng.random() < 0.1 else rng.uniform(1.0, 80.0),
             rng.choice([1.0, 1.0, 1.0, 0.5, 3.0]))
            for _ in range(40)]
    ends = [None] * len(plan)

    def job(i, at, work, weight):
        yield sim.timeout(at)
        yield res.submit(work, weight=weight)
        ends[i] = sim.now

    def slowdown():
        yield sim.timeout(1.5)
        res.set_capacity(50.0)

    for i, (at, work, weight) in enumerate(plan):
        sim.process(job(i, at, work, weight))
    sim.process(slowdown())
    sim.run()
    return repr(sim.now), [repr(t) for t in ends], repr(res.total_work)


def test_contention_matches_pinned_end_times():
    now, ends, total = contention()
    with open(PINNED) as fh:
        pinned = json.load(fh)
    assert now == pinned["now"]
    assert ends == pinned["ends"]
    assert total == pinned["total_work"]
