"""The data_corrupt fault kind and the check_integrity oracle layer."""

from operator import add

import numpy as np
import pytest

from repro.chaos import (
    FAULT_KINDS,
    DFSChaos,
    EngineChaos,
    FaultEvent,
    FaultPlan,
    LAYERS,
    check_integrity,
    snapshot_corrupt_times,
)
from repro.cluster import make_cluster
from repro.dataflow import CostModel, DataflowContext, EngineConfig, SimEngine
from repro.resilience import ResiliencePolicies, RetryPolicy
from repro.simcore import Simulator
from repro.storage.dfs import DFSConfig, DistributedFS


class TestFaultKind:
    def test_data_corrupt_is_a_kind(self):
        assert "data_corrupt" in FAULT_KINDS

    def test_renewal_plans_can_carry_it(self):
        plan = FaultPlan.renewal(3, horizon=50.0,
                                 rates={"data_corrupt": 0.1})
        assert plan.kinds() == ["data_corrupt"]
        assert all(e.magnitude == 1.0 for e in plan)

    def test_snapshot_corrupt_times(self):
        plan = FaultPlan.scripted([
            FaultEvent(7.0, "data_corrupt"),
            FaultEvent(2.0, "data_corrupt"),
            FaultEvent(4.0, "operator_crash"),
        ])
        assert snapshot_corrupt_times(plan) == [2.0, 7.0]

    def test_plan_rng_streams_are_stable(self):
        a = FaultPlan.scripted([], seed=9).rng("dfs.data_corrupt")
        b = FaultPlan.scripted([], seed=9).rng("dfs.data_corrupt")
        c = FaultPlan.scripted([], seed=9).rng("engine.data_corrupt")
        draws = lambda r: r.integers(0, 1 << 30, 8).tolist()
        assert draws(a) == draws(b)
        assert draws(a) != draws(c)      # per-purpose child streams


def _wordcount_env():
    sim = Simulator()
    cl = make_cluster(sim, 2, 4)
    ctx = DataflowContext(default_parallelism=8)
    retry = ResiliencePolicies(retry=RetryPolicy(max_attempts=9))
    eng = SimEngine(cl, EngineConfig(resilience=retry),
                    cost_model=CostModel(cpu_per_record=2e-4))
    words = (["alpha", "beta", "gamma", "delta"] * 300)
    ds = ctx.parallelize(words, 8).map(lambda w: (w, 1)).reduce_by_key(add, 4)
    expected = sorted(ds.collect())
    return sim, eng, ds, expected


class TestEngineCorruption:
    def test_corrupt_bucket_recovered_by_lineage(self):
        sim, eng, ds, expected = _wordcount_env()
        # rot two registered map outputs right after the map stage
        # finishes; the reduces detect the checksum breaks and lineage
        # recovery re-runs exactly the producing maps
        plan = FaultPlan.scripted(
            [FaultEvent(0.066, "data_corrupt", magnitude=2.0)], seed=5)
        chaos = EngineChaos(eng, plan)
        chaos.start()
        res = sim.run_until_done(eng.collect(ds))
        assert sorted(res.value) == expected
        assert chaos.trace.count("data_corrupt") == 2
        assert eng.integrity_detected + eng.integrity_latent_discarded == 2
        assert eng.audit_shuffle_integrity() == []

    def test_corrupt_before_any_output_is_skipped(self):
        sim, eng, ds, expected = _wordcount_env()
        plan = FaultPlan.scripted([FaultEvent(0.0, "data_corrupt")], seed=5)
        chaos = EngineChaos(eng, plan)
        chaos.start()
        res = sim.run_until_done(eng.collect(ds))
        assert sorted(res.value) == expected
        assert chaos.trace.count("data_corrupt_skipped") == 1
        assert eng.integrity_detected == 0

    def test_corrupt_map_outputs_audit(self):
        sim, eng, ds, expected = _wordcount_env()
        res = sim.run_until_done(eng.collect(ds))
        assert res.value
        hit = eng.corrupt_map_outputs(2)
        assert len(hit) == 2
        assert sorted(eng.audit_shuffle_integrity()) == sorted(hit)

    def test_corruption_only_lands_on_clean_buckets(self):
        sim, eng, ds, _expected = _wordcount_env()
        sim.run_until_done(eng.collect(ds))
        (sid, outs), = eng._map_outputs.items()
        n_out = len(outs[0].buckets)
        # without an rng every injection hits map 0's first clean bucket
        hits = [eng.corrupt_map_outputs(1) for _ in range(n_out + 1)]
        assert hits[:n_out] == [[(sid, 0, r)] for r in range(n_out)]
        assert hits[n_out] == []          # nothing clean is left to rot
        assert eng.audit_shuffle_integrity() == \
            [(sid, 0, r) for r in range(n_out)]

    @pytest.mark.parametrize("seed", [14, 16, 184, 279, 315, 318])
    def test_repeat_draws_keep_accounting_exact(self, seed):
        # these seeds' engine plans draw an already-rotten bucket again
        report = check_integrity(seed)
        assert report.ok, report.failures


    # the DFS leg: a stalled repair retried on node recovery (37, 298,
    # 324) and an injector that rotted a block's last clean pieces (121,
    # 387)
    @pytest.mark.parametrize("seed", [37, 121, 298, 324, 387])
    def test_dfs_protection_restored(self, seed):
        report = check_integrity(seed)
        assert report.ok, report.failures


class TestDFSCorruption:
    def test_corrupt_piece_detected_and_healed(self):
        sim = Simulator()
        cl = make_cluster(sim, n_racks=3, nodes_per_rack=3)
        dfs = DistributedFS(cl, DFSConfig(block_size=64 * 1024,
                                          detection_delay=0.5,
                                          scrub_interval=5.0), seed=3)
        payload = np.random.default_rng(17).bytes(120_000)
        sim.run_until_done(dfs.write("/f.bin", data=payload,
                                     writer="h0_0", mode="replicate"))
        plan = FaultPlan.scripted([FaultEvent(1.0, "data_corrupt")], seed=4)
        chaos = DFSChaos(dfs, plan)
        chaos.start()
        sim.run(until=60.0)
        assert chaos.trace.count("data_corrupt") == 1
        assert dfs.integrity_detected == 1
        assert dfs.audit_integrity() == []
        got, _ = sim.run_until_done(dfs.read("/f.bin", reader="h2_2"))
        assert got == payload

    @pytest.mark.parametrize("mode", ["replicate", "ec"])
    def test_corruption_keeps_a_readable_clean_set(self, mode):
        # far more rot than any block can take: every block must keep a
        # clean replica (or k clean fragments), the rest is skipped
        sim = Simulator()
        cl = make_cluster(sim, n_racks=3, nodes_per_rack=3)
        dfs = DistributedFS(cl, DFSConfig(block_size=64 * 1024, ec_k=4,
                                          ec_m=2, auto_repair=False),
                            seed=3)
        payload = np.random.default_rng(17).bytes(150_000)
        sim.run_until_done(dfs.write("/f.bin", data=payload,
                                     writer="h0_0", mode=mode))
        plan = FaultPlan.scripted(
            [FaultEvent(1.0, "data_corrupt", magnitude=20)], seed=4)
        chaos = DFSChaos(dfs, plan)
        chaos.start()
        sim.run(until=5.0)
        need = 1 if mode == "replicate" else dfs.codec.k
        rotten = dfs.audit_integrity()
        for block in dfs.blocks_of("/f.bin"):
            bad = sum(1 for bid, _s in rotten if bid == block.block_id)
            assert len(block.locations) - bad == need
        assert chaos.trace.count("data_corrupt") == len(rotten)
        assert chaos.trace.count("data_corrupt_skipped") == 20 - len(rotten)
        got, _ = sim.run_until_done(dfs.read("/f.bin", reader="h2_2"))
        assert got == payload

    def test_corrupt_skipped_when_nothing_stored(self):
        sim = Simulator()
        cl = make_cluster(sim, n_racks=2, nodes_per_rack=2)
        dfs = DistributedFS(cl, DFSConfig(block_size=64 * 1024), seed=3)
        plan = FaultPlan.scripted([FaultEvent(1.0, "data_corrupt")], seed=4)
        chaos = DFSChaos(dfs, plan)
        chaos.start()
        sim.run(until=5.0)
        assert chaos.trace.count("data_corrupt_skipped") == 1


class TestIntegrityOracle:
    def test_registered_layer(self):
        assert "integrity" in LAYERS
        assert LAYERS["integrity"] is check_integrity

    # seeds 0-5 run in test_oracle.py's all-layer sweep; here one seed
    # deep-checks the report shape and that corruption actually fired
    def test_report_is_complete_and_injecting(self):
        report = check_integrity(0)
        assert report.ok, report.failures
        assert report.injections > 0
        labels = " ".join(report.checks)
        for needle in ("recovery_equivalence", "trace_determinism",
                       "accounting", "no_latent_after_scrub",
                       "protection_restored", "exactly_once_emissions"):
            assert needle in labels, f"missing {needle} in {labels}"

    def test_trace_repeats_exactly(self):
        a = check_integrity(1)
        b = check_integrity(1)
        assert a.ok and b.ok
        assert a.injections == b.injections
        assert a.checks == b.checks
