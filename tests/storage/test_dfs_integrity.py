"""Checksummed DFS data plane: detection, quarantine, scrub, repair."""

import numpy as np
import pytest

from repro.cluster import make_cluster
from repro.common.errors import InsufficientReplicasError
from repro.common.units import MB
from repro.simcore import Simulator
from repro.storage import DFSConfig, DistributedFS, integrity


def setup(n_racks=3, nodes_per_rack=3, **cfg):
    sim = Simulator()
    cl = make_cluster(sim, n_racks, nodes_per_rack)
    fs = DistributedFS(cl, DFSConfig(block_size=MB(4), **cfg), seed=1)
    return sim, cl, fs


def payload(n=100_000, seed=0):
    return np.random.default_rng(seed).integers(
        0, 256, n, dtype=np.uint8).tobytes()


def write(sim, fs, path, data, mode="replicate", writer="h0_0"):
    sim.run_until_done(fs.write(path, data=data, writer=writer, mode=mode))


class TestReplicatedDetection:
    def test_corrupt_replica_falls_to_next(self):
        sim, cl, fs = setup()
        data = payload()
        write(sim, fs, "/f", data)
        block = fs.blocks_of("/f")[0]
        # rot the writer-local copy (slot 0, the closest for this reader)
        assert fs.corrupt_piece(block.block_id, 0) is not None
        got, _ = sim.run_until_done(fs.read("/f", reader="h0_0"))
        assert got == data                      # silent fault, right answer
        assert fs.integrity_detected == 1
        assert fs.integrity_quarantined == 1

    def test_quarantine_removes_location_before_repair(self):
        sim, cl, fs = setup(auto_repair=False)
        data = payload()
        write(sim, fs, "/f", data)
        block = fs.blocks_of("/f")[0]
        fs.corrupt_piece(block.block_id, 0)
        sim.run_until_done(fs.read("/f", reader="h0_0"))
        # the corrupt copy must be OUT of the location map (and its
        # content dropped) the moment it is detected — never a repair
        # source, never served again
        assert 0 not in block.locations
        assert (block.block_id, 0) not in fs._content

    def test_detection_triggers_rereplication(self):
        sim, cl, fs = setup(detection_delay=0.5)
        data = payload()
        write(sim, fs, "/f", data)
        block = fs.blocks_of("/f")[0]
        fs.corrupt_piece(block.block_id, 0)
        sim.run_until_done(fs.read("/f", reader="h0_0"))
        sim.run(until=sim.now + 30.0)
        assert len(block.locations) == fs.config.replication
        assert fs.audit_integrity() == []
        got, _ = sim.run_until_done(fs.read("/f", reader="h2_0"))
        assert got == data

    def test_replicas_share_one_seal_and_rot_alone(self, monkeypatch):
        sealed = []
        real_seal = integrity.seal
        monkeypatch.setattr(integrity, "seal",
                            lambda data, *a: sealed.append(len(data))
                            or real_seal(data, *a))
        sim, cl, fs = setup(auto_repair=False)
        data = payload()
        write(sim, fs, "/f", data)
        block = fs.blocks_of("/f")[0]
        slots = sorted(block.locations)
        assert len(slots) == fs.config.replication == 3
        # one seal over the block's bytes, stored in every slot
        assert sealed == [len(data)]
        assert len({id(fs._seals[block.block_id, s]) for s in slots}) == 1
        # rotting one replica fails that slot's verify and no other
        fs.corrupt_piece(block.block_id, 1)
        assert [fs._piece_clean(block.block_id, s) for s in slots] \
            == [True, False, True]
        # read next to the rotten copy: served from a clean replica
        got, _ = sim.run_until_done(
            fs.read("/f", reader=block.locations[1]))
        assert got == data
        assert fs.integrity_detected == 1
        assert sorted(block.locations) == [0, 2]


class TestECDetection:
    def test_corrupt_fragment_excluded_from_decode(self):
        sim, cl, fs = setup(ec_k=4, ec_m=2)
        data = payload(200_000, seed=3)
        write(sim, fs, "/e", data, mode="ec")
        block = fs.blocks_of("/e")[0]
        fs.corrupt_piece(block.block_id, 1)
        got, _ = sim.run_until_done(fs.read("/e", reader="h1_0"))
        assert got == data
        assert fs.integrity_detected == 1
        assert fs.degraded_reads >= 1           # decode excluded the bad one

    def test_fragment_reconstructed_fresh(self):
        sim, cl, fs = setup(ec_k=4, ec_m=2, detection_delay=0.5)
        data = payload(200_000, seed=3)
        write(sim, fs, "/e", data, mode="ec")
        block = fs.blocks_of("/e")[0]
        fs.corrupt_piece(block.block_id, 2)
        sim.run_until_done(fs.read("/e", reader="h1_0"))
        sim.run(until=sim.now + 30.0)
        assert len(block.locations) == 6
        assert fs.audit_integrity() == []
        got, _ = sim.run_until_done(fs.read("/e", reader="h2_2"))
        assert got == data


class TestRepairSourceAudit:
    def test_two_corruption_regression(self):
        """Repair must never clone a corrupt source (satellite 2).

        Corrupt TWO of the three replicas.  The scrub quarantines both
        — each leaves ``block.locations`` before any re-replication
        picks sources — so the two repairs can only copy from the
        single clean replica.  A source-blind repair would have cloned
        rot and the per-reader round-trips below would fail.
        """
        sim, cl, fs = setup(detection_delay=0.5)
        data = payload()
        write(sim, fs, "/f", data)
        block = fs.blocks_of("/f")[0]
        assert fs.corrupt_piece(block.block_id, 1) is not None
        assert fs.corrupt_piece(block.block_id, 2) is not None
        found = sim.run_until_done(fs.scrub_now())
        assert found == 2
        assert fs.integrity_quarantined == 2
        sim.run(until=sim.now + 60.0)
        assert fs.audit_integrity() == []
        assert len(block.locations) == fs.config.replication
        # every surviving copy round-trips from every rack
        for reader in ("h0_0", "h1_1", "h2_2"):
            got, _ = sim.run_until_done(fs.read("/f", reader=reader))
            assert got == data

    def test_repair_starved_of_clean_sources_refuses_rot(self):
        """When the only live source is corrupt, repair must stall.

        Kill the two nodes holding clean replicas: re-replication's only
        candidate source fails verification, is quarantined, and the
        repair stalls — the block goes unavailable (loud) instead of
        re-protecting itself with rotten bytes (silent).  Recovering a
        clean node restores correct service and retries the stalled
        repairs back to full replication.
        """
        sim, cl, fs = setup(detection_delay=0.5)
        data = payload()
        write(sim, fs, "/f", data)
        block = fs.blocks_of("/f")[0]
        fs.corrupt_piece(block.block_id, 1)
        n0, n2 = block.locations[0], block.locations[2]
        cl.nodes[n0].fail()
        cl.nodes[n2].fail()
        sim.run(until=sim.now + 60.0)
        assert 1 not in block.locations          # rot quarantined
        assert fs.integrity_detected == 1
        with pytest.raises(InsufficientReplicasError):
            sim.run_until_done(fs.read("/f", reader="h1_0"))
        cl.nodes[n0].recover()
        got, _ = sim.run_until_done(fs.read("/f", reader="h1_0"))
        assert got == data
        sim.run()
        assert fs.metrics.value("dfs.repairs_stalled") >= 1
        live = [s for s, n in block.locations.items() if cl.nodes[n].alive]
        assert len(live) == fs.config.replication
        assert fs.audit_integrity() == []

    def test_ec_stripe_below_k_recovers_with_its_node(self):
        sim, cl, fs = setup(ec_k=4, ec_m=2, detection_delay=0.5)
        data = payload(200_000, seed=5)
        write(sim, fs, "/e", data, mode="ec")
        block = fs.blocks_of("/e")[0]
        # two rotten fragments and fragment 0's node down: repairing
        # slot 0 quarantines 1 and 2, which leaves 3 < k live fragments,
        # so every repair of the stripe stalls until that node is back
        fs.corrupt_piece(block.block_id, 1)
        fs.corrupt_piece(block.block_id, 2)
        n0 = block.locations[0]
        cl.nodes[n0].fail()
        sim.run(until=sim.now + 60.0)
        assert sorted(block.locations) == [0, 3, 4, 5]
        assert fs.metrics.value("dfs.repairs_stalled") >= 1
        cl.nodes[n0].recover()
        sim.run()
        assert sorted(block.locations) == list(range(6))
        assert all(cl.nodes[n].alive for n in block.locations.values())
        assert fs.audit_integrity() == []
        got, _ = sim.run_until_done(fs.read("/e", reader="h2_1"))
        assert got == data

    def test_ec_reconstruction_skips_rotten_source(self):
        sim, cl, fs = setup(ec_k=4, ec_m=2, detection_delay=0.5)
        data = payload(200_000, seed=5)
        write(sim, fs, "/e", data, mode="ec")
        block = fs.blocks_of("/e")[0]
        # rot a data fragment silently, then kill the node holding the
        # last parity fragment: reconstructing slot 5 picks sources
        # sorted(live)[:k] = fragments 0..3, whose verification must
        # catch the rotten fragment 0, quarantine it, and retry with
        # the surviving clean set — never decode from rot
        fs.corrupt_piece(block.block_id, 0)
        cl.nodes[block.locations[5]].fail()
        sim.run(until=sim.now + 60.0)
        assert fs.integrity_detected == 1
        assert fs.integrity_quarantined == 1
        assert fs.audit_integrity() == []
        assert len(block.locations) == 6
        got, _ = sim.run_until_done(fs.read("/e", reader="h2_1"))
        assert got == data


class TestScrubber:
    def test_scrub_finds_latent_rot(self):
        sim, cl, fs = setup()
        data = payload()
        write(sim, fs, "/f", data)
        block = fs.blocks_of("/f")[0]
        fs.corrupt_piece(block.block_id, 2)     # never read
        found = sim.run_until_done(fs.scrub_now())
        assert found == 1
        assert fs.integrity_detected == 1
        sim.run(until=sim.now + 30.0)
        assert fs.audit_integrity() == []
        assert len(block.locations) == fs.config.replication

    def test_scrub_counts_work(self):
        sim, cl, fs = setup()
        write(sim, fs, "/f", payload())
        before = sim.now
        found = sim.run_until_done(fs.scrub_now())
        assert found == 0
        assert fs.scrub_pieces == fs.config.replication
        assert fs.scrub_bytes == pytest.approx(100_000 * 3)
        assert sim.now > before                 # rate-paced, not free

    def test_background_scrubber_heals_without_reads(self):
        sim, cl, fs = setup(scrub_interval=5.0, detection_delay=0.5)
        data = payload()
        write(sim, fs, "/f", data)
        block = fs.blocks_of("/f")[0]
        fs.corrupt_piece(block.block_id, 1)
        sim.run(until=sim.now + 60.0)
        assert fs.integrity_detected == 1
        assert fs.audit_integrity() == []
        assert len(block.locations) == fs.config.replication

    def test_clean_scrub_is_quiet(self):
        sim, cl, fs = setup(scrub_interval=5.0)
        write(sim, fs, "/f", payload())
        sim.run(until=60.0)
        assert fs.integrity_detected == 0
        assert fs.integrity_quarantined == 0


class TestAccounting:
    def test_latent_discard_counted_on_node_repair(self):
        # a corrupt copy on a node that dies is overwritten unread by
        # the node-failure repair; the books must still balance
        sim, cl, fs = setup(detection_delay=0.5)
        data = payload()
        write(sim, fs, "/f", data)
        block = fs.blocks_of("/f")[0]
        victim = block.locations[1]
        fs.corrupt_piece(block.block_id, 1)
        cl.nodes[victim].fail()
        sim.run(until=sim.now + 30.0)
        cl.nodes[victim].recover()
        assert fs.integrity_latent_discarded == 1
        assert fs.integrity_detected == 0
        assert fs.audit_integrity() == []
        got, _ = sim.run_until_done(fs.read("/f", reader="h2_0"))
        assert got == data

    def test_audit_is_free_and_silent(self):
        sim, cl, fs = setup()
        write(sim, fs, "/f", payload())
        block = fs.blocks_of("/f")[0]
        fs.corrupt_piece(block.block_id, 0)
        t0, d0 = sim.now, fs.integrity_detected
        assert fs.audit_integrity() == [(block.block_id, 0)]
        assert sim.now == t0 and fs.integrity_detected == d0
