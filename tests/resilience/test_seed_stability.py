"""Seed stability: same seeds => same fault plans, traces, retry schedules.

The determinism contract spans both randomized subsystems this PR ties
together: the chaos planner's Poisson renewal process and the retry
policy's decorrelated jitter.  Identical seeds must reproduce the
injection trace and the backoff schedule bit-for-bit; different seeds
must diverge.
"""

from operator import add

from repro.chaos import ClusterChaos, EngineChaos, FaultPlan, InjectionTrace
from repro.cluster import make_cluster
from repro.dataflow import CostModel, DataflowContext, EngineConfig, SimEngine
from repro.resilience import ResiliencePolicies, RetryPolicy
from repro.simcore import Simulator

RATES = {"node_fail": 2.0, "slow_node": 4.0, "task_crash": 12.0}
TARGETS = [f"h{r}_{i}" for r in range(2) for i in range(4)]


def _plan(seed):
    return FaultPlan.renewal(seed, horizon=0.4, rates=RATES,
                             targets=TARGETS, mean_duration=0.1)


class TestPlanSeedStability:
    def test_same_seed_same_events(self):
        a, b = _plan(3), _plan(3)
        assert tuple(e.key() for e in a) == tuple(e.key() for e in b)

    def test_different_seed_different_events(self):
        a, b = _plan(3), _plan(4)
        assert tuple(e.key() for e in a) != tuple(e.key() for e in b)


class TestJitterSeedStability:
    def _schedule(self, seed, key="job"):
        s = RetryPolicy(max_attempts=100, base_delay=0.05,
                        seed=seed).session(key)
        return [s.record_failure("op", "e", float(i)) for i in range(12)]

    def test_same_seed_same_schedule(self):
        assert self._schedule(7) == self._schedule(7)

    def test_different_seed_different_schedule(self):
        assert self._schedule(7) != self._schedule(8)


class TestEndToEndSeedStability:
    """One faulted, policy-enabled run replayed: trace + retry history."""

    def _run(self, seed):
        sim = Simulator()
        cluster = make_cluster(sim, n_racks=2, nodes_per_rack=4)
        ctx = DataflowContext(default_parallelism=8)
        policies = ResiliencePolicies(
            retry=RetryPolicy(max_attempts=20, base_delay=0.005, seed=seed))
        engine = SimEngine(cluster,
                           config=EngineConfig(resilience=policies),
                           cost_model=CostModel(cpu_per_record=2e-4))
        words = ["a", "b", "c", "d"] * 600
        ds = (ctx.parallelize(words, 8).map(lambda w: (w, 1))
              .reduce_by_key(add, 4))
        trace = InjectionTrace()
        plan = _plan(seed)
        ClusterChaos(cluster, plan, trace).start()
        chaos = EngineChaos(engine, plan, trace)
        chaos.start()
        res = sim.run_until_done(engine.collect(ds))
        return sorted(res.value), trace.signature(), sim.now

    def test_identical_seeds_identical_runs(self):
        r1 = self._run(2)
        r2 = self._run(2)
        assert r1 == r2   # results, injection trace, and end time

    def test_results_survive_faults(self):
        result, sig, _now = self._run(2)
        assert sum(c for _w, c in result) == 2400
