"""Simulated distributed engine: correctness vs local, FT, speculation,
locality, caching, metrics."""

import operator

import pytest

from repro.cluster import make_cluster
from repro.common.errors import TaskFailedError
from repro.dataflow import (
    CostModel,
    DataflowContext,
    EngineConfig,
    SimEngine,
)
from repro.simcore import Simulator
from repro.workloads import zipf_text


def make_env(n_racks=2, nodes_per_rack=4, config=None, cost=None, **kw):
    sim = Simulator()
    cl = make_cluster(sim, n_racks, nodes_per_rack, **kw)
    ctx = DataflowContext(default_parallelism=8)
    eng = SimEngine(cl, config=config, cost_model=cost)
    return sim, cl, ctx, eng


BUSY = CostModel(cpu_per_record=2e-4)


class TestCorrectness:
    def test_wordcount_matches_local(self):
        sim, cl, ctx, eng = make_env()
        docs = ["a b c"] * 30 + ["b c d"] * 20
        wc = (ctx.parallelize(docs, 8).flat_map(str.split)
              .map(lambda w: (w, 1)).reduce_by_key(operator.add))
        res = sim.run_until_done(eng.collect(wc))
        assert sorted(res.value) == sorted(wc.collect())

    def test_count(self):
        sim, cl, ctx, eng = make_env()
        res = sim.run_until_done(eng.count(ctx.range(137, 9)))
        assert res.value == 137

    def test_reduce(self):
        sim, cl, ctx, eng = make_env()
        res = sim.run_until_done(
            eng.reduce(ctx.range(100, 8), operator.add))
        assert res.value == 4950

    def test_sort(self):
        import random
        random.seed(3)
        data = [random.randint(0, 10 ** 6) for _ in range(1500)]
        sim, cl, ctx, eng = make_env()
        ds = ctx.parallelize(data, 8).sort_by(lambda x: x, n_partitions=5)
        res = sim.run_until_done(eng.collect(ds))
        assert res.value == sorted(data)

    def test_join(self):
        sim, cl, ctx, eng = make_env()
        a = ctx.parallelize([(i % 20, i) for i in range(200)], 6)
        b = ctx.parallelize([(i % 20, -i) for i in range(150)], 6)
        j = a.join(b)
        res = sim.run_until_done(eng.collect(j))
        assert sorted(res.value) == sorted(j.collect())

    def test_multi_stage_chain(self):
        sim, cl, ctx, eng = make_env()
        ds = (ctx.range(500, 8).map(lambda x: (x % 50, x))
              .reduce_by_key(operator.add)
              .map(lambda kv: (kv[0] % 5, kv[1]))
              .group_by_key()
              .map_values(sorted))
        res = sim.run_until_done(eng.collect(ds))
        assert sorted(res.value) == sorted(ds.collect())

    def test_empty_dataset(self):
        sim, cl, ctx, eng = make_env()
        res = sim.run_until_done(eng.collect(ctx.parallelize([], 1)))
        assert res.value == []


class TestMetrics:
    def test_task_count(self):
        sim, cl, ctx, eng = make_env()
        ds = ctx.range(100, 6).map(lambda x: (x, 1)).reduce_by_key(
            operator.add, 4)
        res = sim.run_until_done(eng.collect(ds))
        assert res.metrics.n_tasks == 10    # 6 map + 4 reduce

    def test_duration_positive_and_monotone_with_work(self):
        sim, cl, ctx, eng = make_env(cost=BUSY)
        small = sim.run_until_done(eng.collect(ctx.range(1000, 8)))
        sim2, cl2, ctx2, eng2 = make_env(cost=BUSY)
        big = sim2.run_until_done(eng2.collect(ctx2.range(30_000, 8)))
        assert 0 < small.metrics.duration < big.metrics.duration

    def test_shuffle_bytes_recorded(self):
        sim, cl, ctx, eng = make_env()
        ds = ctx.range(1000, 8).map(lambda x: (x, x)).group_by_key(8)
        res = sim.run_until_done(eng.collect(ds))
        assert res.metrics.shuffle_bytes > 0

    def test_more_nodes_faster(self):
        def run(n_racks, nodes):
            sim, cl, ctx, eng = make_env(n_racks, nodes, cost=BUSY)
            ds = ctx.range(40_000, 32).map(lambda x: x + 1)
            return sim.run_until_done(eng.collect(ds)).metrics.duration
        assert run(4, 4) < run(1, 2)


class TestFaultTolerance:
    def test_node_loss_mid_job_correct_result(self):
        sim, cl, ctx, eng = make_env(cost=BUSY)
        ds = (ctx.range(20_000, 16).map(lambda x: (x % 100, x))
              .reduce_by_key(operator.add, 16))
        ev = eng.collect(ds)

        def killer(s):
            yield s.timeout(0.3)
            cl.nodes["h0_0"].fail()
        sim.process(killer(sim))
        res = sim.run_until_done(ev)
        assert sorted(res.value) == sorted(ds.collect())
        assert res.metrics.n_failed_attempts > 0

    def test_lineage_recovery_after_map_stage(self):
        """Kill a node after its map outputs exist: only those re-run."""
        sim, cl, ctx, eng = make_env(cost=CostModel(cpu_per_record=1e-3))
        ds = (ctx.range(8000, 8).map(lambda x: (x % 64, 1))
              .reduce_by_key(operator.add, 8)
              .map(lambda kv: (kv[0] % 4, kv[1]))
              .reduce_by_key(operator.add, 4))
        ev = eng.collect(ds)

        fired = {}

        def killer(s):
            # wait until some map outputs registered, then kill their host
            while True:
                yield s.timeout(0.05)
                for sid, outs in eng._map_outputs.items():
                    if outs:
                        victim = next(iter(outs.values())).node
                        cl.nodes[victim].fail()
                        fired["victim"] = victim
                        return
        sim.process(killer(sim))
        res = sim.run_until_done(ev)
        assert sorted(res.value) == sorted(ds.collect())
        assert "victim" in fired

    def test_job_fails_after_retry_budget(self):
        # default config: the job's retry session is DEFAULT_TASK_RETRY, so
        # exhaustion is typed and carries the attempt history
        sim, cl, ctx, eng = make_env(
            1, 1, cost=CostModel(cpu_per_record=1e-3))
        ds = ctx.range(5000, 2)
        ev = eng.collect(ds)

        def chaos(s):
            # keep killing the only node so tasks can never finish
            node = cl.nodes["h0_0"]
            for _ in range(10):
                yield s.timeout(0.2)
                node.fail()
                yield s.timeout(0.01)
                node.recover()
        sim.process(chaos(sim))
        with pytest.raises(TaskFailedError) as ei:
            sim.run_until_done(ev)
        exc = ei.value
        assert exc.op is not None
        assert exc.job.startswith("ds")
        assert exc.attempts
        assert any(a.op == exc.op for a in exc.attempts)

    @pytest.mark.parametrize("crashes, fails", [(4, False), (5, True)])
    def test_default_retry_bound_is_five_attempts(self, crashes, fails):
        # DEFAULT_TASK_RETRY allows four retries per task: split 0 of the
        # first stage crashing four times still succeeds, five times fails
        sim, cl, ctx, eng = make_env()
        left = [crashes]

        def hook(stage, split, node):
            if split == 0 and left[0] > 0:
                left[0] -= 1
                return True
            return False
        eng.fault_hook = hook
        ds = ctx.range(400, 4).map(lambda x: x * 3)
        ev = eng.collect(ds)
        if fails:
            with pytest.raises(TaskFailedError) as ei:
                sim.run_until_done(ev)
            assert len(ei.value.attempts) == 5
        else:
            res = sim.run_until_done(ev)
            assert sorted(res.value) == [x * 3 for x in range(400)]
            assert res.metrics.n_failed_attempts == 4


class TestSpeculation:
    def _run(self, spec: bool) -> float:
        sim = Simulator()
        cl = make_cluster(sim, 2, 4,
                          speed_factors=[1, 1, 1, 1, 1, 1, 1, 0.1])
        ctx = DataflowContext()
        eng = SimEngine(cl, EngineConfig(speculation=spec,
                                         check_interval=0.05),
                        cost_model=BUSY)
        ds = ctx.range(40_000, 16).map(lambda x: x * 2)
        res = sim.run_until_done(eng.collect(ds))
        assert sorted(res.value) == sorted(x * 2 for x in range(40_000))
        return res.metrics

    def test_speculation_beats_stragglers(self):
        no_spec = self._run(False)
        spec = self._run(True)
        assert spec.duration < no_spec.duration * 0.6
        assert spec.n_speculative > 0
        assert spec.n_spec_wins > 0

    def test_no_speculation_without_flag(self):
        m = self._run(False)
        assert m.n_speculative == 0


class TestLocality:
    def test_locality_preferred_when_free(self):
        sim, cl, ctx, eng = make_env(
            config=EngineConfig(locality_wait=1.0), cost=BUSY)
        parts = [[i] * 500 for i in range(8)]
        locs = [[f"h{i // 4}_{i % 4}"] for i in range(8)]
        ds = ctx.from_partitions(parts, locations=locs).map(lambda x: x)
        res = sim.run_until_done(eng.collect(ds))
        m = res.metrics
        assert m.locality_node == 8
        assert m.locality_fraction == 1.0

    def test_zero_wait_sacrifices_locality(self):
        # all blocks on ONE node; no waiting -> most tasks run remote
        sim, cl, ctx, eng = make_env(
            config=EngineConfig(locality_wait=0.0), cost=BUSY)
        parts = [[i] * 2000 for i in range(16)]
        locs = [["h0_0"]] * 16
        ds = ctx.from_partitions(parts, locations=locs).map(lambda x: x)
        res = sim.run_until_done(eng.collect(ds))
        assert res.metrics.locality_node <= 8   # only 4 slots on h0_0
        assert res.metrics.input_fetch_bytes > 0

    def test_waiting_improves_locality(self):
        def frac(wait):
            sim, cl, ctx, eng = make_env(
                config=EngineConfig(locality_wait=wait), cost=BUSY)
            parts = [[i] * 2000 for i in range(16)]
            locs = [["h0_0", "h0_1"]] * 16
            ds = ctx.from_partitions(parts, locations=locs).map(lambda x: x)
            return sim.run_until_done(
                eng.collect(ds)).metrics.locality_fraction
        assert frac(5.0) > frac(0.0)


class TestCachingOnEngine:
    def test_cached_dataset_not_recomputed(self):
        sim, cl, ctx, eng = make_env()
        calls = []
        base = ctx.range(100, 4).map(lambda x: calls.append(x) or x).cache()
        sim.run_until_done(eng.collect(base))
        n_first = len(calls)
        sim.run_until_done(eng.collect(base.map(lambda x: x + 1)))
        assert len(calls) == n_first    # second job served from cache

    def test_cache_invalidated_on_node_loss(self):
        sim, cl, ctx, eng = make_env()
        calls = []
        base = ctx.range(100, 4).map(lambda x: calls.append(x) or x).cache()
        sim.run_until_done(eng.collect(base))
        n_first = len(calls)
        # kill every node that holds cache entries, then recover them
        holders = {e.node for e in eng._cache.values()}
        for h in holders:
            cl.nodes[h].fail()
        for h in holders:
            cl.nodes[h].recover()
        res = sim.run_until_done(eng.collect(base))
        assert sorted(res.value) == list(range(100))
        assert len(calls) > n_first     # had to recompute

    def test_shuffle_outputs_reused_across_jobs(self):
        sim, cl, ctx, eng = make_env()
        ds = ctx.range(500, 6).map(lambda x: (x % 10, 1)).reduce_by_key(
            operator.add, 4)
        r1 = sim.run_until_done(eng.collect(ds))
        r2 = sim.run_until_done(eng.collect(ds))
        # second run skips the map stage: only reduce tasks
        assert r2.metrics.n_tasks == 4
        assert sorted(r2.value) == sorted(r1.value)


class TestStaleInboxGuard:
    """A ``Store.get`` outstanding when a stage loop exits must never
    deliver a late task result into a completed stage: each ``_run_stage``
    invocation owns a fresh inbox and withdraws its pending get on exit
    (see the ``finally`` guard), so overlapping recovery re-runs of the
    same stage cannot cross-deliver."""

    def test_overlapping_recovery_reruns_correct(self):
        sim, cl, ctx, eng = make_env(cost=CostModel(cpu_per_record=5e-4))
        ds = (ctx.range(12_000, 12).map(lambda x: (x % 80, x))
              .reduce_by_key(operator.add, 8)
              .map(lambda kv: (kv[0] % 4, kv[1]))
              .reduce_by_key(operator.add, 4))
        ev = eng.collect(ds)

        def chaos(s):
            # repeated fail/recover while stages are mid-flight forces
            # FetchFailed-driven re-runs that overlap live attempts
            for name in ("h0_0", "h1_0", "h0_1"):
                yield s.timeout(0.4)
                cl.nodes[name].fail()
                yield s.timeout(0.2)
                cl.nodes[name].recover()
        sim.process(chaos(sim))
        res = sim.run_until_done(ev)
        assert sorted(res.value) == sorted(ds.collect())
        assert res.metrics.n_failed_attempts > 0

    def test_speculation_with_recovery_reruns_correct(self):
        # the any_of(inbox, timer) wait path plus straggler copies plus a
        # node loss: maximum overlap between attempts and stage re-runs
        sim = Simulator()
        cl = make_cluster(sim, 2, 4,
                          speed_factors=[1, 1, 1, 1, 1, 1, 1, 0.15])
        ctx = DataflowContext(default_parallelism=8)
        eng = SimEngine(cl, EngineConfig(speculation=True,
                                         check_interval=0.05),
                        cost_model=CostModel(cpu_per_record=5e-4))
        ds = (ctx.range(10_000, 12).map(lambda x: (x % 50, 1))
              .reduce_by_key(operator.add, 6))
        ev = eng.collect(ds)

        def killer(s):
            yield s.timeout(0.5)
            cl.nodes["h0_1"].fail()
            yield s.timeout(0.3)
            cl.nodes["h0_1"].recover()
        sim.process(killer(sim))
        res = sim.run_until_done(ev)
        assert sorted(res.value) == sorted(ds.collect())


class TestInboxStageWaits:
    """With speculation off and every task in a free slot, stage loops
    block on the task inbox alone and never arm the poll timer, so the
    scheduler tick cannot change the event count or the schedule."""

    COST = CostModel(cpu_per_record=1.5e-2, task_overhead=5e-3)

    def _wordcount(self, **config):
        # 16 map and 16 reduce tasks fit the 2x4 cluster's free slots,
        # so no task is deferred (a deferred task legitimately arms it)
        sim = Simulator()
        cl = make_cluster(sim, 2, 4)
        ctx = DataflowContext(default_parallelism=16, cost_model=self.COST)
        eng = SimEngine(cl, config=EngineConfig(**config),
                        cost_model=self.COST)
        docs = zipf_text(n_docs=40, words_per_doc=60, vocab_size=300,
                         skew=1.0, seed=3)
        ds = (ctx.parallelize(docs, 16).flat_map(str.split)
              .map(lambda w: (w, 1)).reduce_by_key(operator.add, 16))
        res = sim.run_until_done(eng.collect(ds))
        return sim.events_processed, res.metrics.duration, sorted(res.value)

    def test_poll_interval_is_invisible_to_idle_stages(self):
        fine = self._wordcount(speculation=False, check_interval=0.01)
        coarse = self._wordcount(speculation=False, check_interval=1.0)
        assert fine == coarse

    def test_armed_timer_shows_the_interval(self):
        # control: speculation arms the timer, so a finer tick costs events
        fine = self._wordcount(speculation=True, check_interval=0.01)
        coarse = self._wordcount(speculation=True, check_interval=1.0)
        assert fine[0] > coarse[0]
        assert fine[2] == coarse[2]
