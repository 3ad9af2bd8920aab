"""Narrow-chain fusion: fused and unfused plans must be indistinguishable.

:func:`random_chain` feeds the equivalence lattice, which crosses fusion
with every other option, executor and fault plan.  The tests here pin
the barriers (cached midpoints, samples, multi-child DAGs, deep chains)
and the fused-segment count.
"""

import operator
import pickle

from repro.cluster import make_cluster
from repro.dataflow import (
    DataflowContext,
    ExecOptions,
    SimEngine,
    fusion_groups,
)
from repro.simcore import Simulator


def fused_ctx(fused, parallelism=4):
    return DataflowContext(default_parallelism=parallelism,
                           options=ExecOptions(fusion=fused))


def collect_both(build):
    """(fused, unfused) pickled collect() results of the same plan."""
    out = {}
    for fused in (True, False):
        out[fused] = pickle.dumps(build(fused_ctx(fused)).collect())
    return out[True], out[False]


# -- random narrow chains -------------------------------------------------


def random_chain(ctx, rng):
    """A random pipeline of narrow ops (element-wise and with_split)."""
    ds = ctx.parallelize(range(rng.randrange(0, 400)), rng.randrange(1, 6))
    for _ in range(rng.randrange(1, 10)):
        op = rng.randrange(8)
        if op == 0:
            k = rng.randrange(1, 5)
            ds = ds.map(lambda x, _k=k: x * _k + 1)
        elif op == 1:
            m = rng.randrange(2, 5)
            ds = ds.filter(lambda x, _m=m: hash(x) % _m != 0)
        elif op == 2:
            ds = ds.flat_map(lambda x: (x, -x) if isinstance(x, int) else (x,))
        elif op == 3:
            ds = ds.map_partitions(lambda it: [sum(1 for _ in it)])
        elif op == 4:
            ds = ds.zip_with_index().map(lambda kv: kv[0])
        elif op == 5:
            ds = ds.key_by(lambda x: hash(x) % 7).map_values(
                lambda v: v).values()
        elif op == 6:
            ds = ds.glom().flat_map(lambda chunk: chunk)
        else:
            ds = ds.map(str).map(len)
    return ds


# -- barriers -------------------------------------------------------------


def test_cached_midpoint_is_barrier_and_hits_cache():
    for fused in (True, False):
        ctx = fused_ctx(fused, 2)
        calls = []
        base = ctx.parallelize(range(20), 2).map(
            lambda x: calls.append(x) or x + 1)
        mid = base.map(lambda x: x * 2).cache()
        top = mid.map(lambda x: x - 1).filter(lambda x: x % 3 != 0)
        first = top.collect()
        n_after_first = len(calls)
        second = top.collect()
        assert first == second
        assert len(calls) == n_after_first     # cache hit: no recompute
        if fused:
            groups = fusion_groups(top)
            # the cached dataset splits the pipeline: consumers above it
            # fuse separately, and it may only ever HEAD its own group
            # (caching wraps compute, so heading a chain is safe)
            assert len(groups) == 2
            assert all(mid.dataset_id not in g[:-1] for g in groups)
            assert groups[0] == [top.parent.dataset_id, top.dataset_id]


def test_diamond_multi_child_is_barrier():
    ctx = DataflowContext(2)
    a = ctx.parallelize(range(50), 2).map(lambda x: x + 1)
    b = a.map(lambda x: x * 2)            # b feeds two children
    c = b.map(lambda x: x + 3)
    d = b.filter(lambda x: x % 4 == 0)
    top = c.union(d)
    groups = {tuple(g) for g in fusion_groups(top)}
    # c and d each fuse alone: their shared parent b is a barrier
    assert (c.dataset_id,) in groups
    assert (d.dataset_id,) in groups
    # b itself still fuses with a below the fan-out
    assert (a.dataset_id, b.dataset_id) in groups

    fused, unfused = collect_both(
        lambda ctx2: (lambda a2: a2.map(lambda x: x + 3).union(
            a2.filter(lambda x: x % 4 == 0)))(
                ctx2.parallelize(range(50), 2).map(lambda x: x + 1)
                .map(lambda x: x * 2)))
    assert fused == unfused


def test_sample_is_barrier_and_deterministic():
    def build(ctx):
        return (ctx.parallelize(range(500), 3).map(lambda x: x * 3)
                .sample(0.4, seed=11).map(lambda x: x + 1))
    fused, unfused = collect_both(build)
    assert fused == unfused
    ctx = DataflowContext(3)
    top = build(ctx)
    groups = fusion_groups(top)
    # the op above the sample fuses alone: the sample is never pulled
    # into a consumer's segment (it may still head its own)
    assert groups[0] == [top.dataset_id]
    assert all(top.parent.dataset_id not in g[:-1] for g in groups)


def test_context_flag_disables_fusion():
    ctx = fused_ctx(False, 2)
    ds = ctx.parallelize(range(30), 2).map(lambda x: x + 1).map(
        lambda x: x * 2)
    assert ds.collect() == [(x + 1) * 2 for x in range(30)]


def test_deep_chain():
    def build(ctx):
        ds = ctx.parallelize(range(100), 2)
        for i in range(40):
            ds = ds.map(lambda x, _i=i: x + _i)
        return ds
    fused, unfused = collect_both(build)
    assert fused == unfused
    ctx = DataflowContext(2)
    ds = ctx.parallelize(range(10), 2)
    for i in range(40):
        ds = ds.map(lambda x, _i=i: x + _i)
    (group,) = fusion_groups(ds)
    assert len(group) == 40


# -- simulated engine -----------------------------------------------------


def _sim_collect(build, fused=True):
    sim = Simulator()
    cl = make_cluster(sim, 2, 3)
    ctx = fused_ctx(fused, 6)
    eng = SimEngine(cl)
    res = sim.run_until_done(eng.collect(build(ctx)))
    return res


def test_simengine_reports_fused_segments():
    def build(ctx):
        return (ctx.parallelize(range(200), 4)
                .map(lambda x: x + 1).filter(lambda x: x % 2 == 0)
                .map(lambda x: (x % 7, x)).reduce_by_key(operator.add, 3)
                .map_values(lambda v: v + 1).map(lambda kv: kv[1]))
    res = _sim_collect(build)
    assert res.metrics.fused_segments >= 2   # map side + reduce side
    res_off = _sim_collect(build, fused=False)
    assert res_off.metrics.fused_segments == 0
    assert sorted(res_off.value) == sorted(res.value)
