"""Multi-process backend: pool execution must be indistinguishable.

The equivalence lattice holds pool results to in-process ones.  The
tests here cover actions, shared variables, cache handling and the
failure paths: worker death recovers through the retry ledger, user
errors re-raise driver-side, and the segment cache primes per process.
"""

import os
import pickle
import random

import pytest

from repro.cluster import make_cluster
from repro.common.errors import PlanError, UnpicklableTaskError
from repro.dataflow import (
    DataflowContext,
    ExecOptions,
    ProcessPoolBackend,
    SimEngine,
    fusion,
)
from repro.dataflow.fusion import (
    prime_segments,
    reset_segment_cache,
    segment_cache_shapes,
    segment_shapes,
)
from repro.simcore import Simulator

from .test_fusion import random_chain


@pytest.fixture(scope="module")
def pool():
    """One warm 2-worker pool shared by the whole module."""
    backend = ProcessPoolBackend(n_workers=2)
    yield backend
    backend.shutdown()


def pool_ctx(pool, parallelism=4, options=ExecOptions()):
    ctx = DataflowContext(default_parallelism=parallelism, options=options)
    ctx.attach_pool(pool)
    ctx.backend = "pool"
    return ctx


def collect_both_backends(build, pool, parallelism=4, options=ExecOptions()):
    """(inprocess, pool) pickled collect() results of the same plan."""
    ctx_a = DataflowContext(default_parallelism=parallelism, options=options)
    a = pickle.dumps(build(ctx_a).collect())
    ctx_b = pool_ctx(pool, parallelism, options)
    b = pickle.dumps(build(ctx_b).collect())
    return a, b


# -- randomized equivalence ------------------------------------------------


@pytest.mark.parametrize("fused", [True, False])
def test_pool_fusion_toggle_reprimes(fused, pool):
    # the fusion option rides to the workers on the primed context: a
    # pool must not serve results compiled under the other mode
    local, pooled = collect_both_backends(
        lambda ctx: random_chain(ctx, random.Random(3)), pool,
        options=ExecOptions(fusion=fused))
    assert local == pooled


def test_pool_cache_clear_and_repeat_actions(pool):
    ctx = pool_ctx(pool)
    mid = ctx.parallelize(range(80), 4).map(lambda x: x * x).cache()
    top = mid.filter(lambda x: x % 3 == 0)
    first = top.collect()
    assert top.collect() == first          # cached partitions re-serve
    assert top.count() == len(first)
    ctx.pooled_executor.clear()            # drop shuffles + worker caches
    assert top.collect() == first
    ctx.pooled_executor.uncache(mid)
    assert top.collect() == first


def test_pool_actions_match_local(pool):
    def build(ctx):
        return ctx.parallelize(range(100), 4).map(lambda x: (x * 7) % 31)
    la = DataflowContext(default_parallelism=4)
    lp = pool_ctx(pool)
    a, b = build(la), build(lp)
    assert a.count() == b.count()
    assert a.take(13) == b.take(13)
    assert a.sum() == b.sum()
    assert a.reduce(max) == b.reduce(max)
    assert a.top(5) == b.top(5)
    assert a.take_ordered(5) == b.take_ordered(5)


def test_pool_shuffle_metrics_match_local(pool):
    # split 0's words are longer than any other split's, so a worker that
    # fixed the shuffle's per-record size from the first split it ran
    # would report other bytes; the driver sizes in split order instead
    words = ["x" * 40] * 50 + [f"w{i % 30}" for i in range(150)]

    def run(ctx, ex):
        out = (ctx.parallelize(words, 4).map(lambda w: (w, 1))
               .reduce_by_key(lambda a, b: a + b, 3).collect())
        return sorted(out), {
            sid: (m.records_in, m.records_written, m.bytes_written)
            for sid, m in ex(ctx).shuffle_metrics.items()}

    local = run(DataflowContext(default_parallelism=4),
                lambda ctx: ctx.local_executor)
    assert local[1][0][:2] == (200, 91)
    assert run(pool_ctx(pool), lambda ctx: ctx.pooled_executor) == local


# -- shared variables ------------------------------------------------------


def test_pool_accumulators_exactly_once(pool):
    def run(ctx):
        acc = ctx.accumulator(0)
        errs = ctx.accumulator(0, name="errs")

        def f(x):
            acc.add(1)
            if x % 10 == 0:
                errs.add(1)
            return (x % 6, x)
        out = (ctx.parallelize(range(120), 5).map(f)
               .reduce_by_key(lambda a, b: a + b).collect())
        return sorted(out), acc.value, errs.value

    assert run(DataflowContext(default_parallelism=4)) == \
        run(pool_ctx(pool))


def test_pool_take_partial_scan_accumulator_parity(pool):
    # take() must not charge accumulators for partitions the local
    # executor would never materialize
    def run(ctx):
        acc = ctx.accumulator(0)
        ds = ctx.parallelize(range(100), 10).map(
            lambda x: (acc.add(1), x)[1])
        got = ds.take(5)
        return got, acc.value

    assert run(DataflowContext(default_parallelism=4)) == \
        run(pool_ctx(pool))


def test_pool_broadcast(pool):
    def run(ctx):
        bc = ctx.broadcast({"scale": 3})
        return (ctx.parallelize(range(50), 4)
                .map(lambda x: x * bc.value["scale"]).collect())

    assert run(DataflowContext(default_parallelism=4)) == \
        run(pool_ctx(pool))


# -- backend selection -----------------------------------------------------


def test_backend_validation():
    ctx = DataflowContext()
    assert ctx.backend == "inprocess"
    with pytest.raises(PlanError):
        ctx.backend = "threads"
    with pytest.raises(PlanError):
        DataflowContext(backend="distributed")


def test_backend_env_override(monkeypatch):
    monkeypatch.setenv("REPRO_BACKEND", "pool")
    monkeypatch.setenv("REPRO_POOL_WORKERS", "2")
    ctx = DataflowContext(default_parallelism=3)
    try:
        assert ctx.backend == "pool"
        assert ctx.parallelize(range(30)).map(lambda x: -x).sum() == -435
        assert ctx.pooled_executor.backend.n_workers == 2
    finally:
        ctx.close()


def test_backend_constructor_and_switching(pool):
    ctx = pool_ctx(pool)
    data = ctx.parallelize(range(40), 4).map(lambda x: x + 1)
    pooled = data.collect()
    ctx.backend = "inprocess"
    assert data.collect() == pooled
    ctx.backend = "pool"
    assert data.collect() == pooled


# -- failure paths ---------------------------------------------------------


def test_worker_death_recovers_with_retry_ledger(tmp_path):
    backend = ProcessPoolBackend(n_workers=2)
    ctx = DataflowContext(default_parallelism=4)
    ctx.attach_pool(backend)
    ctx.backend = "pool"
    flag = str(tmp_path / "died-once")

    def maybe_die(x):
        # first worker to see record 13 kills itself mid-stage; the
        # retry (on a fresh worker) finds the flag file and proceeds
        if x == 13 and not os.path.exists(flag):
            open(flag, "w").close()
            os.kill(os.getpid(), 9)
        return (x % 5, x)

    try:
        expected = sorted((x % 5, x) for x in range(40))
        got = sorted(ctx.parallelize(range(40), 4).map(maybe_die).collect())
        assert got == expected
        assert backend.worker_deaths == 1
        history = ctx.pooled_executor.retry_session.history
        assert len(history) == 1
        assert history[0].error == "pool worker died"
        assert backend.workers_alive == backend.n_workers
    finally:
        backend.shutdown()


def test_worker_death_during_shuffle_map(tmp_path):
    backend = ProcessPoolBackend(n_workers=2)
    ctx = DataflowContext(default_parallelism=4)
    ctx.attach_pool(backend)
    ctx.backend = "pool"
    flag = str(tmp_path / "map-died-once")

    def maybe_die(x):
        if x == 7 and not os.path.exists(flag):
            open(flag, "w").close()
            os.kill(os.getpid(), 9)
        return (x % 3, 1)

    try:
        got = sorted(ctx.parallelize(range(60), 5).map(maybe_die)
                     .reduce_by_key(lambda a, b: a + b).collect())
        assert got == [(0, 20), (1, 20), (2, 20)]
        assert backend.worker_deaths == 1
        assert [a.error for a in
                ctx.pooled_executor.retry_session.history] \
            == ["pool worker died"]
    finally:
        backend.shutdown()


def test_retry_budget_exhaustion_raises_task_failed():
    from repro.common.errors import TaskFailedError
    from repro.resilience import RetryPolicy
    backend = ProcessPoolBackend(
        n_workers=1, retry_policy=RetryPolicy(max_attempts=2))
    ctx = DataflowContext(default_parallelism=2)
    ctx.attach_pool(backend)
    ctx.backend = "pool"
    try:
        with pytest.raises(TaskFailedError) as ei:
            ctx.parallelize(range(10), 2).map(
                lambda x: os.kill(os.getpid(), 9)).collect()
        assert len(ei.value.attempts) == 2
        assert backend.worker_deaths == 2
    finally:
        backend.shutdown()


def test_user_error_reraises_and_pool_stays_usable(pool):
    ctx = pool_ctx(pool)
    with pytest.raises(ZeroDivisionError):
        ctx.parallelize(range(10), 2).map(lambda x: 1 // (x - 4)).collect()
    # no retries for user errors …
    assert ctx.pooled_executor.retry_session.history == []
    # … and the pool still serves correct results afterwards
    assert ctx.parallelize(range(10), 2).map(lambda x: x + 1).sum() == 55


def test_unpicklable_closure_names_operator(pool):
    ctx = pool_ctx(pool)
    gen = (i for i in range(3))    # generators cannot pickle
    with pytest.raises(UnpicklableTaskError) as ei:
        ctx.parallelize(range(10), 2).map(lambda x, _g=gen: x).collect()
    assert "MappedDataset" in str(ei.value)


# -- segment-cache safety (per-process codegen state) ----------------------


def test_segment_cache_reset_and_prime():
    reset_segment_cache()
    assert segment_cache_shapes() == ()
    shapes = segment_shapes(["map", "filter", "iter", "flatmap", "map"])
    assert shapes == [("map", "filter"), ("flatmap", "map")]
    assert prime_segments(shapes) == 2
    assert set(segment_cache_shapes()) == set(shapes)
    assert prime_segments(shapes) == 0      # idempotent: cache hits
    reset_segment_cache()
    assert segment_cache_shapes() == ()


def test_segment_shapes_match_run_chain_compilation():
    reset_segment_cache()
    kinds = ["map", "map", "iter_split", "filter"]
    ds_kinds = segment_shapes(kinds)
    prime_segments(ds_kinds)
    primed = set(segment_cache_shapes())
    # running the equivalent fused chain compiles nothing new
    steps = [("map", lambda x: x + 1), ("map", lambda x: x * 2),
             ("iter_split", lambda s, it: list(it)),
             ("filter", lambda x: x % 2 == 0)]
    out = list(fusion.run_chain(steps, 0, iter(range(10))))
    assert out == [(x + 1) * 2 for x in range(10) if (x + 1) * 2 % 2 == 0]
    assert set(segment_cache_shapes()) == primed
    reset_segment_cache()


def test_pool_worker_rebuilds_segment_cache(pool):
    # a fused plan whose shapes were never compiled driver-side still
    # runs pooled: workers prime their own per-process cache
    reset_segment_cache()
    ctx = pool_ctx(pool)
    got = (ctx.parallelize(range(60), 3)
           .map(lambda x: x + 1)
           .filter(lambda x: x % 2 == 0)
           .flat_map(lambda x: (x, x))
           .collect())
    assert got == [y for x in range(60) if (x + 1) % 2 == 0
                   for y in ((x + 1), (x + 1))]


# -- spawn start method ----------------------------------------------------


@pytest.mark.skipif(os.name == "nt", reason="POSIX pool only")
def test_spawn_start_method_smoke():
    backend = ProcessPoolBackend(n_workers=1, start_method="spawn")
    ctx = DataflowContext(default_parallelism=2)
    ctx.attach_pool(backend)
    ctx.backend = "pool"
    try:
        # arithmetic-only closures: int hashing is seed-independent, so
        # results cannot depend on the child's PYTHONHASHSEED
        got = (ctx.parallelize(range(40), 2)
               .map(lambda x: (x % 4, x * 3))
               .reduce_by_key(lambda a, b: a + b).collect())
        ref = {}
        for x in range(40):
            ref[x % 4] = ref.get(x % 4, 0) + x * 3
        assert sorted(got) == sorted(ref.items())
    finally:
        backend.shutdown()


# -- simulated engine integration ------------------------------------------


def _sim_collect(build, backend=None):
    sim = Simulator()
    cluster = make_cluster(sim, 2, 2)
    ctx = DataflowContext(default_parallelism=4)
    if backend is not None:
        ctx.attach_pool(backend)
        ctx.backend = "pool"
    eng = SimEngine(cluster)
    ev = eng.collect(build(ctx))
    sim.run()
    res = ev.value
    return pickle.dumps(res.value), res.metrics


def test_engine_pool_prefetch_identical_results_and_schedule(pool):
    build = lambda ctx: (ctx.parallelize(range(80), 4)
                         .map(lambda x: x * 3)
                         .filter(lambda x: x % 2 == 0))
    v_local, m_local = _sim_collect(build)
    v_pool, m_pool = _sim_collect(build, backend=pool)
    assert v_local == v_pool
    assert m_local.pool_prefetched == 0
    assert m_pool.pool_prefetched == 4
    # prefetch must not perturb the simulated schedule
    assert m_local.duration == m_pool.duration


def test_engine_pool_prefetch_skips_impure_stages(pool):
    # shuffle-fed result stage and accumulator jobs must compute inline
    build = lambda ctx: (ctx.parallelize(range(60), 4)
                         .map(lambda x: (x % 5, x))
                         .reduce_by_key(lambda a, b: a + b, 3))
    v_local, m_local = _sim_collect(build)
    v_pool, m_pool = _sim_collect(build, backend=pool)
    assert v_local == v_pool
    # only the 4 pure map-stage partitions prefetch, not the reduce side
    assert m_pool.pool_prefetched == 4


def test_engine_pool_prefetch_failure_is_counted(pool, monkeypatch):
    from repro.dataflow.mp import PooledExecutor
    from repro.obs import MetricsRegistry, set_registry

    def broken(self, ds, splits):
        raise RuntimeError("pool unavailable")

    build = lambda ctx: (ctx.parallelize(range(80), 4)
                         .map(lambda x: x * 3)
                         .filter(lambda x: x % 2 == 0))
    v_local, m_local = _sim_collect(build)
    monkeypatch.setattr(PooledExecutor, "compute_partitions", broken)
    reg = MetricsRegistry()
    prev = set_registry(reg)
    try:
        v_pool, m_pool = _sim_collect(build, backend=pool)
    finally:
        set_registry(prev)
    # the stage computed inline: same result and schedule, one fallback
    assert v_pool == v_local
    assert m_pool.duration == m_local.duration
    assert m_pool.pool_prefetched == 0
    assert m_pool.pool_prefetch_fallbacks == 1
    assert reg.value("engine.pool_prefetch_fallbacks") == 1
    assert reg.value("engine.pool_prefetch_fallbacks.RuntimeError") == 1
    assert m_local.pool_prefetch_fallbacks == 0
