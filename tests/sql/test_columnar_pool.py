"""Columnar SQL on the process pool: backend must be invisible.

The DataFrame layer routes every action through Dataset actions, so
switching the context backend to the worker pool must leave results
byte-identical — including vectorized columnar execution, whose numpy
column batches ship to workers as out-of-band pickle-5 buffers.
"""

import random

import pytest

from repro.dataflow import DataflowContext, ExecOptions, ProcessPoolBackend
from repro.sql import AdaptiveConfig, DataFrame, avg_, col, count_, sum_

from .test_columnar import sales_rows


@pytest.fixture(scope="module")
def pool():
    backend = ProcessPoolBackend(n_workers=2)
    yield backend
    backend.shutdown()


def collect_both_backends(build, pool, options=ExecOptions()):
    ctx_a = DataflowContext(default_parallelism=4, options=options)
    a = build(ctx_a).collect()
    ctx_b = DataflowContext(default_parallelism=4, options=options)
    ctx_b.attach_pool(pool)
    ctx_b.backend = "pool"
    b = build(ctx_b).collect()
    return a, b


def aqe_options(adaptive, config=AdaptiveConfig()):
    return ExecOptions(adaptive=config if adaptive else None)


@pytest.mark.parametrize("columnar", [True, False])
def test_aggregate_query_pool_identical(columnar, pool):
    def build(ctx):
        df = DataFrame.from_rows(ctx, sales_rows(n=300, seed=9))
        return (df.where(col("qty") > 1)
                .with_column("rev", col("price") * col("qty"))
                .group_by("region")
                .agg(rev=sum_(col("rev")), price=avg_(col("price")),
                     n=count_()))
    local, pooled = collect_both_backends(
        build, pool, ExecOptions(columnar=columnar))
    assert sorted(map(repr, local)) == sorted(map(repr, pooled))


def test_udf_fallback_pool_identical(pool):
    def build(ctx):
        df = DataFrame.from_rows(ctx, sales_rows(n=200, seed=3))
        return (df.with_column("tag",
                               col("product").apply(lambda p: p.upper()))
                .where(col("price") > 10.0)
                .select("tag", "price"))
    local, pooled = collect_both_backends(build, pool)
    assert list(map(repr, local)) == list(map(repr, pooled))


# -- joins and adaptive execution on the pool ------------------------------


def _join_tables(seed, n=220, nulls=True):
    rng = random.Random(seed)
    pool_keys = list(range(18)) + ([None] if nulls else [])
    fact = [{"k": rng.choice(pool_keys), "v": i} for i in range(n)]
    dim = [{"k": rng.choice(pool_keys), "w": i * 3} for i in range(n // 4)]
    return fact, dim


def test_adaptive_broadcast_pool_identical(pool):
    # a dim table under the broadcast threshold: the rewrite must fire
    # and the broadcast payload must ship to pool workers intact
    options = aqe_options(True, AdaptiveConfig(broadcast_rows=100))
    fact, _ = _join_tables(11, n=400, nulls=False)
    dim = [{"k": i, "label": f"g{i}"} for i in range(18)]

    def build(ctx):
        f = DataFrame.from_rows(ctx, fact, name="fact")
        d = DataFrame.from_rows(ctx, dim, name="dim")
        return (f.join(d, on="k")
                .group_by("label").agg(n=count_(), s=sum_(col("v"))))
    q = build(DataflowContext(default_parallelism=4, options=options))
    q.to_dataset()
    assert "broadcast_joins" in q.last_adaptive_report.kinds()
    a, b = collect_both_backends(build, pool, options)
    assert sorted(map(repr, a)) == sorted(map(repr, b))


def test_ordered_join_pool_byte_identical(pool):
    # content tie-break: pool vs in-process must agree byte-for-byte on
    # an ordered join even with adaptive top-k rewriting the sort
    fact, dim = _join_tables(5)

    def build(ctx):
        f = DataFrame.from_rows(ctx, fact, name="fact", schema=["k", "v"])
        d = DataFrame.from_rows(ctx, dim, name="dim", schema=["k", "w"])
        return f.join(d, on="k").order_by("v", ascending=False).limit(29)
    for adaptive in (False, True):
        local, pooled = collect_both_backends(build, pool,
                                              aqe_options(adaptive))
        assert list(map(repr, local)) == list(map(repr, pooled))
