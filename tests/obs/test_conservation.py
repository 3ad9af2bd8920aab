"""Metrics-conservation cross-checks: registry totals vs ground truth.

Each subsystem's typed counters must balance against what actually
happened — records in equals records out plus in-flight, checkpoint
counters equal the result's own accounting, DFS byte counters equal the
bytes the workload moved.  A drifting counter is a bug, not noise.
"""

import numpy as np
import pytest

from repro.cluster import make_cluster
from repro.common.errors import InsufficientReplicasError
from repro.common.units import MB
from repro.resilience import AdmissionConfig
from repro.simcore import Simulator
from repro.storage import DFSConfig, DistributedFS
from repro.streaming import (
    CheckpointConfig,
    MicroBatchConfig,
    run_microbatch,
    run_stateful_stream,
)


class TestMicrobatchConservation:
    def check(self, result):
        reg = result.registry
        assert reg is not None
        r_in = reg.value("stream.records_in")
        r_out = reg.value("stream.records_out")
        r_inflight = reg.value("stream.records_inflight")
        r_shed = reg.value("stream.records_shed")
        # flow conservation: every offered record was processed, is
        # still in flight, or was shed — and after drain nothing is in
        # flight
        assert r_in == r_out + r_inflight + r_shed
        assert r_inflight == 0
        assert reg.value("stream.backlog_batches") == 0
        # registry totals agree with the result's own fields
        assert int(r_out) == result.processed_records
        assert int(r_shed) == result.shed_records
        assert int(reg.value("stream.batches")) == len(result.batch_times)
        assert int(reg.value("stream.max_backlog")) == result.max_backlog
        hist = reg.histogram("stream.batch_seconds")
        assert hist.count == len(result.batch_times)
        assert hist.total == pytest.approx(sum(result.batch_times))

    def test_stable_run(self):
        cfg = MicroBatchConfig(batch_interval=1.0, per_record_cost=1e-5,
                               parallelism=4)
        self.check(run_microbatch(lambda t: 2000, cfg, duration=60))

    def test_overloaded_run_with_backpressure(self):
        # overload bounded by admission control at the source
        cfg = MicroBatchConfig(batch_interval=1.0, per_record_cost=1e-4,
                               parallelism=4,
                               admission=AdmissionConfig(
                                   rate=30_000, burst=30_000, max_backlog=2))
        r = run_microbatch(lambda t: 50_000, cfg, duration=60)
        assert r.shed_records > 0
        self.check(r)

    def test_latency_weighted_per_record(self):
        # the latency summary carries one observation per record — a
        # 1-record trickle batch must not weigh like a 10k-record one
        cfg = MicroBatchConfig(batch_interval=1.0, per_record_cost=1e-3,
                               parallelism=1,
                               admission=AdmissionConfig(
                                   rate=10_000, burst=10_000, max_backlog=1))
        r = run_microbatch(lambda t: 10_000 if t < 5 else 1, cfg, duration=40)
        assert r.latency.count == r.processed_records
        self.check(r)


class TestCheckpointConservation:
    def _events(self, n=400):
        return [(0.1 * i, f"k{i % 7}", 1) for i in range(n)]

    def test_registry_matches_result(self):
        cfg = CheckpointConfig(interval=5.0)
        run = run_stateful_stream(self._events(), lambda a, b: a + b,
                                  lambda v: v, cfg,
                                  crash_times=[12.0, 25.0])
        reg = run.registry
        assert reg is not None
        assert int(reg.value("ckpt.events_processed")) == run.processed_events
        assert int(reg.value("ckpt.checkpoints_taken")) == \
            run.checkpoints_taken
        assert int(reg.value("ckpt.crashes")) == len(run.recoveries)
        assert int(reg.value("ckpt.events_replayed")) == \
            sum(r.replayed_events for r in run.recoveries)
        hist = reg.histogram("ckpt.recovery_seconds")
        assert hist.count == len(run.recoveries)
        assert hist.total == pytest.approx(run.total_recovery_time)

    def test_no_crash_no_replay(self):
        cfg = CheckpointConfig(interval=5.0)
        run = run_stateful_stream(self._events(), lambda a, b: a + b,
                                  lambda v: v, cfg)
        reg = run.registry
        assert reg.value("ckpt.crashes") == 0
        assert reg.value("ckpt.events_replayed") == 0
        assert int(reg.value("ckpt.events_processed")) == 400


class TestDFSConservation:
    def setup_fs(self, **cfg):
        sim = Simulator()
        cl = make_cluster(sim, 3, 4)
        fs = DistributedFS(cl, DFSConfig(block_size=MB(4), **cfg), seed=1)
        return sim, cl, fs

    def test_write_read_byte_accounting(self):
        sim, cl, fs = self.setup_fs()
        data = np.random.default_rng(0).integers(
            0, 256, MB(6), dtype=np.uint8).tobytes()
        sim.run_until_done(fs.write("/f", data=data, writer="h0_0"))
        # 2 blocks x 3 replicas
        assert fs.bytes_written == MB(6) * 3
        assert fs.metrics.value("dfs.bytes_written") == fs.bytes_written
        got, n = sim.run_until_done(fs.read("/f", reader="h2_1"))
        assert got == data
        assert fs.bytes_read == MB(6)
        assert fs.metrics.value("dfs.bytes_read") == MB(6)

    def test_failed_read_counted(self):
        sim, cl, fs = self.setup_fs(auto_repair=False)
        sim.run_until_done(fs.write("/f", size=MB(4), writer="h0_0"))
        for node in fs.blocks_of("/f")[0].nodes():
            cl.nodes[node].fail()
        with pytest.raises(InsufficientReplicasError):
            sim.run_until_done(fs.read("/f", reader="h2_1"))
        assert fs.failed_reads == 1
        assert fs.metrics.value("dfs.failed_reads") == 1

    def test_counter_rollback_raises(self):
        # the typed facade keeps `fs.bytes_read += n` working but a net
        # negative adjustment (a counter "rolled back") raises — the
        # conservation tripwire the audit adds
        from repro.common.errors import SimulationError
        sim, cl, fs = self.setup_fs()
        fs.bytes_read += 100
        with pytest.raises(SimulationError, match="negative"):
            fs.bytes_read -= 50

    def test_repair_bytes_match_replication_level(self):
        sim, cl, fs = self.setup_fs(detection_delay=0.5)
        sim.run_until_done(fs.write("/f", size=MB(4), writer="h0_0"))
        victim = fs.locations("/f")[0][1]
        cl.nodes[victim].fail()
        sim.run(until=sim.now + 30.0)
        # the lost replica was rebuilt: back to 3 live copies, and the
        # repair traffic is exactly one block copy
        assert len(fs._live_replicas(fs.blocks_of("/f")[0])) == 3
        assert fs.repair_bytes == MB(4)
        assert fs.repairs_started == 1
