"""The three benchmark workloads, built on the public ``repro`` API.

Each workload has three parts:

* ``setup(seed)`` makes the inputs once, from the public
  :mod:`repro.workloads` generators and ``random.Random(seed)``, together
  with a plain-Python reference result;
* ``run(inputs, on_sim)`` is one job: it builds a fresh
  :class:`~repro.simcore.Simulator` and cluster and runs to completion.
  This is the span the benchmark times.  ``on_sim`` (or None) is called
  with the new simulator before any event is scheduled;
* ``check(inputs, outcome)`` verifies the job's output against the
  reference and returns a list of problems (empty when correct).

A job's :class:`Outcome` also carries the program's own counters, which
the traced run reports and every run checks for determinism.
"""

from __future__ import annotations

import collections
import operator
import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from repro.cluster import make_cluster
from repro.common.units import Gbit_per_s
from repro.dataflow import CostModel, DataflowContext, EngineConfig, SimEngine
from repro.simcore import Simulator
from repro.storage import DFSConfig, DistributedFS
from repro.workloads import teragen, zipf_text

__all__ = ["Outcome", "Workload", "WORKLOADS"]

#: Simulated task cost: map tasks span many scheduler ticks, as big-data
#: tasks do (the same shape the repo's wall-clock suite uses).
SIM_COST = CostModel(cpu_per_record=1.5e-2, task_overhead=5e-3)
ENGINE = EngineConfig(check_interval=0.1)

OnSim = Optional[Callable[[Simulator], None]]


@dataclass
class Outcome:
    """What one job produced: its result plus the program's counters
    (a counter of a layer the job does not use is left out)."""

    value: Any
    sim_s: float
    events: int
    counters: Dict[str, float]


@dataclass(frozen=True)
class Workload:
    """One benchmark workload; why each was chosen is recorded in
    ``BENCHMARK.json`` and ``predictions.json``."""

    name: str
    setup: Callable[[int], Dict[str, Any]]
    run: Callable[[Dict[str, Any], OnSim], Outcome]
    check: Callable[[Dict[str, Any], Outcome], List[str]]


def _fresh_sim(on_sim: OnSim) -> Simulator:
    sim = Simulator()
    if on_sim is not None:
        on_sim(sim)
    return sim


def _run_dataflow(build, on_sim: OnSim) -> Outcome:
    sim = _fresh_sim(on_sim)
    cluster = make_cluster(sim, 2, 4, host_bw=Gbit_per_s(10))
    ctx = DataflowContext(default_parallelism=16, cost_model=SIM_COST,
                          backend="inprocess")
    engine = SimEngine(cluster, config=ENGINE, cost_model=SIM_COST)
    res = sim.run_until_done(engine.collect(build(ctx)))
    m = res.metrics
    return Outcome(res.value, sim.now, sim.events_processed, {
        "net.transfers": cluster.net.n_transfers,
        "dataflow.tasks": m.n_tasks,
        "dataflow.failed_attempts": m.n_failed_attempts,
        "dataflow.shuffle_bytes": m.shuffle_bytes,
        "dataflow.fused_segments": m.fused_segments,
    })


# -- shuffle_sort -----------------------------------------------------------

SORT_RECORDS = 2000


def _sort_setup(seed: int) -> Dict[str, Any]:
    records = teragen(SORT_RECORDS, key_bytes=10, payload_bytes=16,
                      seed=seed)
    return {"records": records, "reference": sorted(records),
            "units": len(records)}


def _sort_run(inputs: Dict[str, Any], on_sim: OnSim = None) -> Outcome:
    return _run_dataflow(
        lambda ctx: ctx.parallelize(inputs["records"], 16).sort_by(
            operator.itemgetter(0), n_partitions=16), on_sim)


def _sort_check(inputs: Dict[str, Any], out: Outcome) -> List[str]:
    if out.value != inputs["reference"]:
        return ["sorted output differs from sorted()"]
    return []


# -- narrow_combine ---------------------------------------------------------

COMBINE_DOCS = 2000
COMBINE_WORDS_PER_DOC = 120


def _clean(word: str) -> bool:
    """The ETL's cleansing filter: drop tokens that are not words."""
    return word.isalpha()


def _pair(word: str):
    return (word, 1)


def _combine_setup(seed: int) -> Dict[str, Any]:
    docs = zipf_text(n_docs=COMBINE_DOCS, words_per_doc=COMBINE_WORDS_PER_DOC,
                     vocab_size=2000, skew=1.0, seed=seed)
    reference: collections.Counter = collections.Counter()
    n_words = 0
    for doc in docs:
        words = doc.split()
        n_words += len(words)
        reference.update(w for w in words if _clean(w))
    return {"docs": docs, "reference": dict(reference), "units": n_words}


def _combine_run(inputs: Dict[str, Any], on_sim: OnSim = None) -> Outcome:
    return _run_dataflow(
        lambda ctx: (ctx.parallelize(inputs["docs"], 16)
                     .flat_map(str.split)
                     .filter(_clean)
                     .map(_pair)
                     .reduce_by_key(operator.add, 4)), on_sim)


def _combine_check(inputs: Dict[str, Any], out: Outcome) -> List[str]:
    got = dict(out.value)
    problems = []
    if len(got) != len(out.value):
        problems.append("a key was emitted more than once")
    if got != inputs["reference"]:
        problems.append("word counts differ from the Counter reference")
    return problems


# -- dfs_mixed --------------------------------------------------------------

DFS_FILES = 6
DFS_FILE_BYTES = 512 * 1024
DFS_CONFIG = DFSConfig(block_size=256 * 1024, detection_delay=1.0)


def _dfs_setup(seed: int) -> Dict[str, Any]:
    rng = random.Random(seed)
    # sizes are fixed (the cost should not depend on the seed); the
    # contents, the DFS placement seed and hence the failed node are not
    files = [rng.randbytes(DFS_FILE_BYTES + 4096 * i)
             for i in range(DFS_FILES)]
    return {"files": files, "reference": list(files),
            "dfs_seed": rng.randrange(2 ** 31), "units": 3 * len(files)}


def _victim(fs: DistributedFS) -> str:
    """The node holding the most EC data fragments (ties: lowest name),
    so that reading after its failure takes degraded decodes."""
    held: Dict[str, int] = collections.Counter()
    for info in fs.files.values():
        for block in info.blocks:
            if block.mode == "ec":
                for idx, node in block.locations.items():
                    if idx < fs.codec.k:
                        held[node] += 1
    return min(held, key=lambda n: (-held[n], n))


def _read_all(sim: Simulator, fs: DistributedFS, n: int) -> List[bytes]:
    done = sim.run_until_done(sim.all_of(
        [fs.read(f"/f{i}") for i in range(n)]))
    return [done[i][0] for i in range(n)]


def _dfs_run(inputs: Dict[str, Any], on_sim: OnSim = None) -> Outcome:
    sim = _fresh_sim(on_sim)
    cluster = make_cluster(sim, 3, 4, host_bw=Gbit_per_s(10))
    fs = DistributedFS(cluster, DFS_CONFIG, seed=inputs["dfs_seed"])
    files = inputs["files"]
    sim.run_until_done(sim.all_of(
        [fs.write(f"/f{i}", data=d, mode="replicate" if i % 2 == 0 else "ec")
         for i, d in enumerate(files)]))
    healthy = _read_all(sim, fs, len(files))
    victim = _victim(fs)
    cluster.nodes[victim].fail()
    degraded = _read_all(sim, fs, len(files))
    sim.run()                          # drains once repair has finished
    value = {"healthy": healthy, "degraded": degraded, "fs": fs}
    return Outcome(value, sim.now, sim.events_processed, {
        "net.transfers": cluster.net.n_transfers,
        "storage.degraded_reads": fs.degraded_reads,
        "storage.repair_bytes": fs.repair_bytes,
    })


def _dfs_check(inputs: Dict[str, Any], out: Outcome) -> List[str]:
    files, v = inputs["reference"], out.value
    problems = []
    for phase in ("healthy", "degraded"):
        bad = [i for i, d in enumerate(v[phase]) if d != files[i]]
        if bad:
            problems.append(f"{phase} reads not byte-exact: files {bad}")
    fs = v["fs"]
    audit = fs.audit_integrity()
    if audit:
        problems.append(f"audit_integrity after repair: {audit}")
    alive = fs.cluster.nodes
    for info in fs.files.values():
        for b in info.blocks:
            want = (fs.config.replication if b.mode == "replicate"
                    else fs.codec.k + fs.codec.m)
            if sum(alive[n].alive for n in b.locations.values()) != want:
                problems.append(f"block {b.block_id} under-protected")
    if fs.failed_reads:
        problems.append(f"{fs.failed_reads} reads failed")
    if out.counters["storage.degraded_reads"] < 1:
        problems.append("no degraded read happened after the failure")
    return problems


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("shuffle_sort", _sort_setup, _sort_run, _sort_check),
    Workload("narrow_combine", _combine_setup, _combine_run, _combine_check),
    Workload("dfs_mixed", _dfs_setup, _dfs_run, _dfs_check),
)}
