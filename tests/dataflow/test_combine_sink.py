"""Combine sink: the fused chain folds straight into the map-side combine.

:data:`AGGREGATORS` feed the equivalence lattice, which holds the
compiled sink to the per-op reference path on every executor.  The
tests here cover empty partitions, counted fallbacks, error surfacing,
accumulator exactly-once semantics and pool-worker priming.
"""

import operator
import pickle

import pytest

from repro.cluster import make_cluster
from repro.dataflow import (
    CostModel,
    DataflowContext,
    EngineConfig,
    ExecOptions,
    ProcessPoolBackend,
    SimEngine,
    fusion,
    mp,
    shuffleio,
)
from repro.dataflow.fusion import (
    prime_segments,
    reset_segment_cache,
    segment_cache_shapes,
    segment_shapes,
)
from repro.obs.metrics import MetricsRegistry, set_registry
from repro.simcore import Simulator


@pytest.fixture(scope="module")
def pool():
    """One warm 2-worker pool shared by the whole module."""
    backend = ProcessPoolBackend(n_workers=2)
    yield backend
    backend.shutdown()


@pytest.fixture
def registry():
    reg = MetricsRegistry()
    prev = set_registry(reg)
    yield reg
    set_registry(prev)


def sink_fallbacks(reg):
    prefix = "dataflow.combine_sink_fallbacks."
    return {k[len(prefix):]: v for k, v in reg.snapshot().items()
            if k.startswith(prefix) and v}


def _append(acc, v):
    acc.append(v)
    return acc


AGGREGATORS = {
    "add": lambda ds: ds.reduce_by_key(operator.add, 3),
    "list_append": lambda ds: ds.combine_by_key(
        lambda v: [v], _append, operator.add, 3),
    "str_concat": lambda ds: ds.combine_by_key(
        str, lambda acc, v: f"{acc},{v}", lambda a, b: f"{a}|{b}", 3),
    "mutable_zero": lambda ds: ds.aggregate_by_key(
        [], _append, operator.add, 3),
}


def make_ctx(fused, parallelism=4):
    return DataflowContext(default_parallelism=parallelism,
                           options=ExecOptions(fusion=fused))


def pool_ctx(pool, fused):
    ctx = make_ctx(fused)
    ctx.attach_pool(pool)
    ctx.backend = "pool"
    return ctx


def sim_env(ctx, config=None, cost=None):
    sim = Simulator()
    cluster = make_cluster(sim, 2, 2)
    return sim, SimEngine(cluster, config=config, cost_model=cost)


def local_buckets(ex, sid):
    """The local executor's stored reduce buckets of one shuffle, decoded
    (sealed or not)."""
    stored, seals = ex._shuffle_store[sid]
    return [shuffleio.open_bucket(stored, seals, r, layer="test",
                                  path=f"s{sid}r{r}")
            for r in range(len(stored))]


def observe_local(build, fused):
    """What the local executor produced: result, buckets and volumes."""
    ctx = make_ctx(fused)
    ds = build(ctx)
    result, ex, sid = ds.collect(), ctx.local_executor, ds.dep.shuffle_id
    m = ex.shuffle_metrics[sid]
    return pickle.dumps((result, local_buckets(ex, sid), m.records_in,
                         m.records_written, m.bytes_written))


def observe_sim(build, fused):
    """What SimEngine produced: result, map outputs and simulated time."""
    ctx = make_ctx(fused)
    sim, eng = sim_env(ctx)
    ds = build(ctx)
    res = sim.run_until_done(eng.collect(ds))
    outs = eng._map_outputs[ds.dep.shuffle_id]
    maps = [(m, outs[m].buckets, outs[m].bucket_bytes) for m in sorted(outs)]
    assert res.metrics.combine_sink_fallbacks == {}
    return pickle.dumps((res.value, maps, repr(sim.now),
                         sim.events_processed))


def test_sink_counts_pre_combine_records():
    ctx = make_ctx(True)
    docs = ["a b a", "", "c a b b", "a"]
    ds = (ctx.parallelize(docs, 2).flat_map(str.split)
          .filter(lambda w: w != "c").map(lambda w: (w, 1))
          .reduce_by_key(operator.add))
    assert sorted(ds.collect()) == [("a", 4), ("b", 3)]
    m = ctx.local_executor.shuffle_metrics[ds.dep.shuffle_id]
    assert (m.records_in, m.records_written) == (7, 4)


# -- edge cases ----------------------------------------------------------------


def test_fold_chain_on_empty_input():
    out = fusion.fold_chain([("map", lambda x: (x, 1))], 0, iter(()),
                            lambda v: v, operator.add)
    assert out == ([], 0)


@pytest.mark.parametrize("observe", [observe_local, observe_sim])
def test_empty_partitions(observe):
    def build(ctx):
        # partition 0 empty at the source, the rest emptied by the filter
        parts = [[], list(range(5)), list(range(5, 9))]
        return (ctx.from_partitions(parts).map(lambda x: x * 2)
                .filter(lambda x: x > 100).map(lambda x: (x, 1))
                .reduce_by_key(operator.add))
    fused = observe(build, True)
    assert fused == observe(build, False)
    assert pickle.loads(fused)[0] == []


def _extend(acc, more):
    acc.extend(more)
    return acc


@pytest.mark.parametrize("executor", ["local", "pool", "sim", "sim+pool"])
def test_in_place_merge_combiners_repeatable(pool, executor):
    """A ``merge_combiners`` that extends its first argument in place
    must not rewrite the stored shuffle: collecting the same dataset
    twice gives the same answer and leaves the first answer untouched."""
    ctx = make_ctx(True)
    if executor in ("pool", "sim+pool"):
        ctx.attach_pool(pool)
        ctx.backend = "pool"
    ds = (ctx.parallelize(range(20), 4).map(lambda x: (x % 2, x))
          .combine_by_key(lambda v: [v], lambda a, v: a + [v], _extend, 2))
    sim, eng = sim_env(ctx)

    def collect():
        if executor in ("local", "pool"):
            return ds.collect()
        return sim.run_until_done(eng.collect(ds)).value

    try:
        first = collect()
        want = [(0, list(range(0, 20, 2))), (1, list(range(1, 20, 2)))]
        assert sorted((k, sorted(v)) for k, v in first) == want
        second = collect()
        assert sorted((k, sorted(v)) for k, v in second) == want
        assert sorted((k, sorted(v)) for k, v in first) == want
    finally:
        if executor in ("pool", "sim+pool"):
            ctx.pooled_executor.clear()


FALLBACK_PROGRAMS = {
    "iter_tail": lambda ctx: (ctx.parallelize(range(40), 4)
                              .map(lambda x: (x % 3, x))
                              .map_partitions(lambda it: list(it))),
    "cached": lambda ctx: (ctx.parallelize(range(40), 4)
                           .map(lambda x: (x % 3, x)).cache()),
    "not_mapped": lambda ctx: ctx.parallelize(
        [(x % 3, x) for x in range(40)], 4),
}
EXPECTED = sorted({k: sum(x for x in range(40) if x % 3 == k)
                   for k in range(3)}.items())


def test_every_fallback_reason_is_exercised():
    assert set(FALLBACK_PROGRAMS) | {"prefetched"} == \
        set(shuffleio.SINK_FALLBACKS)


@pytest.mark.parametrize("reason", sorted(FALLBACK_PROGRAMS))
def test_local_fallbacks_are_counted(reason, registry):
    ctx = make_ctx(True)
    mapped = FALLBACK_PROGRAMS[reason](ctx)
    assert sorted(mapped.reduce_by_key(operator.add).collect()) == EXPECTED
    assert sink_fallbacks(registry) == {reason: 4}
    if reason == "cached":     # the cache is still populated
        assert sorted(ctx.local_executor._cache[mapped.dataset_id]) == \
            [0, 1, 2, 3]


@pytest.mark.parametrize("reason", sorted(FALLBACK_PROGRAMS))
def test_sim_fallbacks_are_counted(reason, registry):
    ctx = make_ctx(True)
    sim, eng = sim_env(ctx)
    mapped = FALLBACK_PROGRAMS[reason](ctx)
    res = sim.run_until_done(eng.collect(mapped.reduce_by_key(operator.add)))
    assert sorted(res.value) == EXPECTED
    assert res.metrics.combine_sink_fallbacks == {reason: 4}
    assert sink_fallbacks(registry) == {reason: 4}
    if reason == "cached":
        assert sorted(s for (d, s) in eng._cache
                      if d == mapped.dataset_id) == [0, 1, 2, 3]


def test_pool_fallbacks_are_counted(pool, registry):
    ctx = pool_ctx(pool, True)
    ds = FALLBACK_PROGRAMS["iter_tail"](ctx).reduce_by_key(operator.add)
    assert sorted(ds.collect()) == EXPECTED
    assert sink_fallbacks(registry) == {"iter_tail": 4}


def test_pool_prefetched_stage_is_a_counted_fallback(pool, registry):
    ctx = pool_ctx(pool, True)
    sim, eng = sim_env(ctx)
    ds = (ctx.parallelize(range(40), 4).map(lambda x: (x % 3, x))
          .reduce_by_key(operator.add))
    res = sim.run_until_done(eng.collect(ds))
    assert sorted(res.value) == EXPECTED
    assert res.metrics.pool_prefetched == 4
    assert res.metrics.combine_sink_fallbacks == {"prefetched": 4}
    assert sink_fallbacks(registry) == {"prefetched": 4}


def test_eligible_and_unfused_runs_count_no_fallback(registry):
    for fused in (True, False):
        ctx = make_ctx(fused)
        sim, eng = sim_env(ctx)
        ds = (ctx.parallelize(range(40), 4).map(lambda x: (x % 3, x))
              .reduce_by_key(operator.add))
        res = sim.run_until_done(eng.collect(ds))
        assert res.metrics.combine_sink_fallbacks == {}
        assert sorted(ds.collect()) == EXPECTED
    assert sink_fallbacks(registry) == {}


ERROR_PROGRAMS = {
    "not_a_pair": (lambda ds: ds.map(lambda x: x).reduce_by_key(
        operator.add), TypeError),
    "triple": (lambda ds: ds.map(lambda x: (x, x, x)).reduce_by_key(
        operator.add), ValueError),
    "raising_aggregator": (lambda ds: ds.map(lambda x: (x % 2, x))
                           .reduce_by_key(lambda a, b: 1 // 0),
                           ZeroDivisionError),
}


@pytest.mark.parametrize("case", sorted(ERROR_PROGRAMS))
@pytest.mark.parametrize("fused", [True, False])
def test_errors_surface_as_in_the_reference(case, fused, pool):
    build, exc = ERROR_PROGRAMS[case]
    with pytest.raises(exc):
        build(make_ctx(fused).parallelize(range(20), 4)).collect()
    ctx = make_ctx(fused)
    sim, eng = sim_env(ctx)
    with pytest.raises(exc):
        sim.run_until_done(eng.collect(build(ctx.parallelize(range(20), 4))))
    with pytest.raises(exc):
        build(pool_ctx(pool, fused).parallelize(range(20), 4)).collect()


@pytest.mark.parametrize("fused", [True, False])
def test_accumulator_applied_once_per_winning_task(fused):
    # a straggler node forces speculative copies of map tasks: every
    # copy runs the fold, only the winner's accumulator updates apply
    sim = Simulator()
    cluster = make_cluster(sim, 2, 4, speed_factors=[1] * 7 + [0.1])
    ctx = make_ctx(fused, parallelism=16)
    eng = SimEngine(cluster, EngineConfig(speculation=True,
                                          check_interval=0.05),
                    cost_model=CostModel(cpu_per_record=2e-4))
    acc = ctx.accumulator(0)

    def pair(x):
        acc.add(1)
        return (x % 7, 1)
    ds = (ctx.range(20_000, 16).filter(lambda x: x % 3 != 0).map(pair)
          .reduce_by_key(operator.add))
    res = sim.run_until_done(eng.collect(ds))
    n = sum(1 for x in range(20_000) if x % 3 != 0)
    assert sum(v for _, v in res.value) == n
    assert res.metrics.n_speculative > 0
    assert acc.value == n


@pytest.mark.parametrize("fused", [True, False])
def test_accumulator_exactly_once_local_and_pool(fused, pool):
    def run(ctx):
        acc = ctx.accumulator(0)
        out = (ctx.parallelize(range(120), 5)
               .map(lambda x: (acc.add(1), (x % 6, x))[1])
               .reduce_by_key(operator.add).collect())
        return sorted(out), acc.value

    local = run(make_ctx(fused))
    assert local[1] == 120
    assert local == run(pool_ctx(pool, fused))


def test_pool_priming_compiles_the_sink_shape():
    ctx = make_ctx(True)
    ds = (ctx.parallelize(["a b", "b c"], 2).flat_map(str.split)
          .filter(str.isalpha).map(lambda w: (w, 1))
          .reduce_by_key(operator.add))
    shapes = mp._plan_segment_shapes(mp._walk_datasets(ds))
    assert ("flatmap", "filter", "map", fusion.SINK_KIND) in shapes
    reset_segment_cache()
    try:
        prime_segments(shapes)
        primed = set(segment_cache_shapes())
        # the pool worker's map task: nothing left to compile
        items, n, fallback = shuffleio.map_side_items(
            ds.dep, 0, ctx.local_executor._runtime)
        assert (sorted(items), n, fallback) == ([("a", 1), ("b", 1)], 2,
                                                None)
        assert set(segment_cache_shapes()) == primed
    finally:
        reset_segment_cache()


def test_segment_shapes_with_sink():
    kinds = ["map", "iter", "filter", "map"]
    assert segment_shapes(kinds, sink=True) == \
        [("map",), ("filter", "map", fusion.SINK_KIND)]
    # a trailing iterator step leaves nothing to sink into
    assert segment_shapes(["map", "iter"], sink=True) == [("map",)]
    with pytest.raises(ValueError):
        fusion.compile_segment((fusion.SINK_KIND,))
