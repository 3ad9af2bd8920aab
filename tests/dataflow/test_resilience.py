"""Engine x resilience policies: deadlines, retry budgets, backoff, hedging."""

import operator
from collections import Counter

import pytest

from repro.chaos import EngineChaos, FaultEvent, FaultPlan
from repro.cluster import make_cluster
from repro.common.errors import (
    DeadlineExceededError,
    RetryBudgetExhaustedError,
    TaskFailedError,
)
from repro.dataflow import CostModel, DataflowContext, EngineConfig, SimEngine
from repro.obs.metrics import MetricsRegistry, set_registry
from repro.obs.trace import trace_to
from repro.resilience import HedgePolicy, ResiliencePolicies, RetryPolicy
from repro.simcore import Simulator

BUSY = CostModel(cpu_per_record=2e-4)


def _env(policies=None, speed_factors=None, **cfg_kw):
    sim = Simulator()
    cl = make_cluster(sim, 2, 4, speed_factors=speed_factors)
    ctx = DataflowContext(default_parallelism=8)
    eng = SimEngine(cl, EngineConfig(resilience=policies, **cfg_kw),
                    cost_model=BUSY)
    return sim, cl, ctx, eng


def _wordcount(ctx, n=2400):
    words = ["a", "b", "c", "d"] * (n // 4)
    return (ctx.parallelize(words, 8).map(lambda w: (w, 1))
            .reduce_by_key(operator.add, 4))


class TestIdlePolicyEquivalence:
    def test_idle_policies_change_nothing(self):
        # fully-armed policies that never fire must be value- AND
        # schedule-identical to no policies at all
        runs = []
        for policies in (None,
                         ResiliencePolicies(
                             retry=RetryPolicy(max_attempts=50, budget=500),
                             hedge=HedgePolicy(multiplier=10.0),
                             deadline_timeout=1e9)):
            sim, _cl, ctx, eng = _env(policies)
            res = sim.run_until_done(eng.collect(_wordcount(ctx)))
            runs.append((sorted(res.value), sim.now))
        assert runs[0] == runs[1]


class TestRetryBudget:
    def test_budget_exhaustion_is_typed_with_history(self):
        policies = ResiliencePolicies(
            retry=RetryPolicy(max_attempts=3, budget=10))
        sim, _cl, ctx, eng = _env(policies)
        plan = FaultPlan.scripted(
            [FaultEvent(0.0, "task_crash", magnitude=500.0)])
        EngineChaos(eng, plan).start()
        with pytest.raises(TaskFailedError) as ei:
            sim.run_until_done(eng.collect(_wordcount(ctx)))
        exc = ei.value
        assert isinstance(exc, RetryBudgetExhaustedError)
        assert exc.job is not None and exc.job.startswith("ds")
        assert exc.stage == 0
        assert exc.op is not None
        # the history is session-wide: the job budget (10) was spent across
        # the 8 splits before any single op reached max_attempts
        assert exc.budget == 10
        assert len(exc.attempts) == exc.budget + 1
        assert any(a.op == exc.op for a in exc.attempts)
        assert exc.op in exc.describe()

    def test_recovery_within_budget_is_transparent(self):
        policies = ResiliencePolicies(
            retry=RetryPolicy(max_attempts=10, budget=50))
        sim, _cl, ctx, eng = _env(policies)
        plan = FaultPlan.scripted(
            [FaultEvent(0.0, "task_crash", magnitude=4.0)])
        chaos = EngineChaos(eng, plan)
        chaos.start()
        ds = _wordcount(ctx)
        res = sim.run_until_done(eng.collect(ds))
        assert sorted(res.value) == sorted(ds.collect())
        assert chaos.trace.count("task_crash") == 4

    def test_backoff_defers_the_relaunch(self):
        # deterministic exponential backoff: one crash must push the
        # retried task (and so the job) past the base_delay mark
        def run(base_delay):
            policies = ResiliencePolicies(
                retry=RetryPolicy(max_attempts=10, base_delay=base_delay,
                                  jitter="none"))
            sim, _cl, ctx, eng = _env(policies)
            plan = FaultPlan.scripted(
                [FaultEvent(0.0, "task_crash", magnitude=1.0)])
            EngineChaos(eng, plan).start()
            ds = _wordcount(ctx)
            res = sim.run_until_done(eng.collect(ds))
            assert sorted(res.value) == sorted(ds.collect())
            return sim.now
        assert run(0.0) < 1.0
        assert run(5.0) > 5.0


class TestDeadline:
    def test_deadline_fails_job_typed(self):
        policies = ResiliencePolicies(deadline_timeout=0.001)
        sim, _cl, ctx, eng = _env(policies)
        with pytest.raises(DeadlineExceededError) as ei:
            sim.run_until_done(eng.collect(_wordcount(ctx, n=40_000)))
        assert ei.value.now == pytest.approx(0.001)

    def test_generous_deadline_never_fires(self):
        policies = ResiliencePolicies(deadline_timeout=1e9)
        sim, _cl, ctx, eng = _env(policies)
        ds = _wordcount(ctx)
        res = sim.run_until_done(eng.collect(ds))
        assert sorted(res.value) == sorted(ds.collect())


class TestHedging:
    def _run(self, hedge):
        policies = ResiliencePolicies(hedge=hedge) if hedge else None
        sim, _cl, ctx, eng = _env(
            policies, check_interval=0.05,
            speed_factors=[1, 1, 1, 1, 1, 1, 1, 0.1])
        ds = ctx.range(40_000, 16).map(lambda x: x * 2)
        reg = MetricsRegistry()
        prev = set_registry(reg)
        try:
            res = sim.run_until_done(eng.collect(ds))
        finally:
            set_registry(prev)
        assert sorted(res.value) == sorted(x * 2 for x in range(40_000))
        return sim.now, reg

    def test_hedging_beats_stragglers(self):
        plain_t, plain_reg = self._run(None)
        hedge_t, hedge_reg = self._run(
            HedgePolicy(quantile=0.5, multiplier=2.0, min_samples=3))
        assert plain_reg.value("resilience.hedge.launched") == 0.0
        assert hedge_reg.value("resilience.hedge.launched") > 0
        assert hedge_reg.value("resilience.hedge.wins") > 0
        assert hedge_t < plain_t * 0.6

    def test_max_hedges_bounds_duplicates(self):
        _t, reg = self._run(
            HedgePolicy(quantile=0.5, multiplier=2.0, min_samples=3,
                        max_hedges=1))
        # 2 splits land on the slow node; at most one hedge per split
        assert reg.value("resilience.hedge.launched") <= 2


def test_speculation_and_hedging_together():
    def run(policies, speculation):
        sim, _cl, ctx, eng = _env(policies, speculation=speculation,
                                  check_interval=0.05,
                                  speed_factors=[1] * 6 + [0.3, 0.1])
        ds = (ctx.range(4000, 16).map(lambda x: (x % 16, x * 2))
              .group_by_key(8).map_values(sorted))
        with trace_to() as tracer:
            return sim.run_until_done(eng.collect(ds)), tracer
    both = ResiliencePolicies(hedge=HedgePolicy(quantile=0.5, multiplier=2.0,
                                                min_samples=3))
    res, tracer = run(both, True)
    assert res.value == run(None, False)[0].value
    # the long map stage speculates; the short reduce stage, under
    # speculation's two-poll floor, hedges
    assert res.metrics.n_speculative > 0
    assert any(i[1] == "resilience.hedge.launch" for i in tracer.instants)
    # live attempts per split over task-span edges (ends sort first)
    live, peak = Counter(), 0
    for _t, delta, *split in sorted(
            (t, d, s.attrs["stage_id"], s.attrs["split"])
            for s in tracer.find("task") for t, d in ((s.t0, 1), (s.t1, -1))):
        live[tuple(split)] += delta
        peak = max(peak, live[tuple(split)])
    assert peak == 2
    assert run(both, True)[1].signature() == tracer.signature()
