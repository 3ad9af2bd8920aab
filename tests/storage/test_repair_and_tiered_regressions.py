"""Regression tests from the bug-audit sweep of the storage layer.

DFS repair target death: a repair target that dies mid-copy must not be
committed into ``block.locations`` — its fail event already fired, so no
watcher would ever re-protect the block (permanent silent degradation).
The fixed path retries with a fresh target and counts the failure.
"""

import numpy as np

from repro.cluster import make_cluster
from repro.common.units import MB
from repro.simcore import Simulator
from repro.storage import DFSConfig, DistributedFS


def setup_fs(**cfg):
    sim = Simulator()
    cl = make_cluster(sim, 3, 4)
    fs = DistributedFS(cl, DFSConfig(block_size=MB(4), **cfg), seed=1)
    return sim, cl, fs


class TestRepairTargetDeath:
    def test_dead_target_not_committed_and_block_reprotected(self):
        sim, cl, fs = setup_fs(detection_delay=1.0)
        data = np.random.default_rng(0).integers(
            0, 256, MB(4), dtype=np.uint8).tobytes()
        sim.run_until_done(fs.write("/f", data=data, writer="h0_0"))
        blk = fs.blocks_of("/f")[0]
        dead = blk.locations[1]
        cl.nodes[dead].fail()

        # kill every node the repair could pick as target, shortly after
        # the repair starts — whichever target it chose dies mid-copy
        holders = set(blk.nodes())
        outsiders = [n for n in cl.nodes if n not in holders and n != dead]
        victims = outsiders[: len(outsiders) - 3]   # leave a few candidates

        def chaos(s):
            yield s.timeout(1.2)       # detection fired, copy in flight
            for v in victims:
                cl.nodes[v].fail()
        sim.process(chaos(sim), name="kill-targets")
        sim.run(until=sim.now + 120.0)

        # whatever location is recorded must be alive: a dead target was
        # never committed
        for node in blk.nodes():
            if node != dead:
                assert cl.nodes[node].alive or node in holders
        live = [n for n in blk.nodes() if cl.nodes[n].alive]
        assert len(live) == 3          # re-protected despite target deaths
        # the file still reads byte-exact
        got, _ = sim.run_until_done(fs.read("/f", reader=live[0]))
        assert got == data

    def test_failed_repair_attempts_are_counted(self):
        sim, cl, fs = setup_fs(detection_delay=1.0)
        sim.run_until_done(fs.write("/f", size=MB(4), writer="h0_0"))
        blk = fs.blocks_of("/f")[0]
        dead = blk.locations[1]
        holders = set(blk.nodes())
        outsiders = [n for n in cl.nodes if n not in holders]
        cl.nodes[dead].fail()

        def chaos(s):
            yield s.timeout(1.2)
            for v in outsiders[:-2]:
                cl.nodes[v].fail()
        sim.process(chaos(sim), name="kill-targets")
        sim.run(until=sim.now + 120.0)
        if fs.repairs_failed:
            # a failed try burned repair traffic without committing
            assert fs.repair_bytes >= MB(4)
        # one repair per lost slot: the initial loss, plus possibly a
        # re-repair when a committed target was itself killed later
        assert fs.repairs_started >= 1
        assert fs.repairs_started == \
            int(fs.metrics.value("dfs.repairs_started"))
