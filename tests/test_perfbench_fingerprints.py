"""Nothing simulated moves: the benchmark's jobs are pinned.

For each ``perfbench`` workload, every input set that
``perfbench/run.py --seed 1`` draws runs once here, and its simulated end
time (as ``float.hex``), kernel event count, program counters and a
digest of its value must equal the pin in
``tests/data/perfbench_fingerprints.json``.  A change meant to move only
wall time (a faster solver, a refactor) must leave all of it unchanged;
one meant to change the simulation regenerates the pin with
``python -m tests.test_perfbench_fingerprints`` (from the repository
root, ``PYTHONPATH=src``) and says why.
"""

import hashlib
import json
import os

import pytest

from .net.test_rate_solve_span import _load

PIN = os.path.join(os.path.dirname(__file__), "data",
                   "perfbench_fingerprints.json")
SEED = 1
WORKLOADS = ("dfs_mixed", "narrow_combine", "shuffle_sort")


def _digest(name: str, value) -> str:
    if name == "dfs_mixed":      # the rest of the value is the live DFS
        value = (value["healthy"], value["degraded"])
    return hashlib.sha256(repr(value).encode()).hexdigest()


def fingerprints(name: str) -> list:
    """``[sim_s hex, events, counters, value digest]`` per input set."""
    jobs, run = _load("jobs"), _load("run")
    workload = jobs.WORKLOADS[name]
    out = []
    for inputs in run.make_inputs(workload, SEED):
        job = workload.run(inputs, None)
        assert workload.check(inputs, job) == []
        out.append([job.sim_s.hex(), job.events, job.counters,
                    _digest(name, job.value)])
    return out


def _pinned() -> dict:
    with open(PIN) as f:
        return json.load(f)


@pytest.mark.parametrize("name", WORKLOADS)
def test_fingerprints_match_the_pin(name):
    assert fingerprints(name) == _pinned()[name]


def test_every_workload_is_pinned():
    assert sorted(_pinned()) == sorted(_load("jobs").WORKLOADS) \
        == list(WORKLOADS)


if __name__ == "__main__":
    pin = {name: fingerprints(name) for name in WORKLOADS}
    with open(PIN, "w") as f:
        json.dump(pin, f, indent=1, sort_keys=True)
        f.write("\n")
