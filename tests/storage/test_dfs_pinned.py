"""Pinned simulated results and stored bytes of a seeded DFS job.

The erasure codec's contract is that a change to how fragments are
computed leaves every stored byte and the simulated schedule identical.
``data/pinned_dfs_job.json`` holds what this scenario produced before the
GF(256) codec became table-driven; the test checks the current code
reproduces it exactly.
"""

import collections
import hashlib
import json
import os
import random

from repro.cluster import make_cluster
from repro.common.units import Gbit_per_s
from repro.simcore import Simulator
from repro.storage import DFSConfig, DistributedFS

PINNED = os.path.join(os.path.dirname(__file__), "data",
                      "pinned_dfs_job.json")


def dfs_job(seed: int = 3):
    """Write, read, fail a node, read degraded, and repair on 12 nodes.

    Six files of uneven length (most blocks are not a multiple of
    ``ec_k`` bytes) alternate between 3-way replication and RS(6, 3).
    The failed node is the one holding the most EC data fragments, so
    the second read pass decodes and the repair reconstructs both data
    and parity slots.  Returns the counters the benchmark reports plus a
    SHA-256 over every stored piece in (block, slot) order.
    """
    rng = random.Random(seed)
    files = [rng.randbytes(40_000 + 3_001 * i) for i in range(6)]
    sim = Simulator()
    cluster = make_cluster(sim, 3, 4, host_bw=Gbit_per_s(10))
    fs = DistributedFS(cluster, DFSConfig(block_size=16 * 1024,
                                          detection_delay=1.0),
                       seed=rng.randrange(2 ** 31))

    def read_all():
        done = sim.run_until_done(sim.all_of(
            [fs.read(f"/f{i}") for i in range(len(files))]))
        return [done[i][0] for i in range(len(files))]

    sim.run_until_done(sim.all_of(
        [fs.write(f"/f{i}", data=d, mode="replicate" if i % 2 == 0 else "ec")
         for i, d in enumerate(files)]))
    assert read_all() == files
    held = collections.Counter(
        node for info in fs.files.values() for b in info.blocks
        if b.mode == "ec"
        for idx, node in b.locations.items() if idx < fs.codec.k)
    victim = min(held, key=lambda n: (-held[n], n))
    cluster.nodes[victim].fail()
    assert read_all() == files
    sim.run()
    assert not fs.audit_integrity()
    digest = hashlib.sha256()
    for key in sorted(fs._content):
        digest.update(repr(key).encode())
        digest.update(fs._content[key])
    return {
        "now": repr(sim.now),
        "events_processed": sim.events_processed,
        "degraded_reads": fs.degraded_reads,
        "repair_bytes": fs.repair_bytes,
        "n_transfers": cluster.net.n_transfers,
        "pieces": len(fs._content),
        "content_sha256": digest.hexdigest(),
    }


def test_dfs_job_matches_pinned_results():
    with open(PINNED) as fh:
        pinned = json.load(fh)
    got = dfs_job()
    assert got["degraded_reads"] > 0 and got["repair_bytes"] > 0
    assert got == pinned
