"""Columnar vs row-interpreter equivalence.

Every supported query shape must produce identical rows
(order-normalized by repr; exactly ordered where the contract promises
it) from the vectorized and interpreted engines, including across the
UDF-fallback boundary and on the simulated cluster.
"""

import dataclasses
import random

import numpy as np
import pytest

from repro.cluster import make_cluster
from repro.dataflow import DataflowContext, SimEngine
from repro.obs.metrics import MetricsRegistry, set_registry
from repro.simcore import Simulator
from repro.sql import (
    DataFrame,
    avg_,
    col,
    count_,
    lit,
    max_,
    min_,
    sum_,
)
from repro.sql.columnar import ColumnBatch, make_array


@pytest.fixture
def ctx():
    return DataflowContext(default_parallelism=4)


def sales_rows(n=300, seed=5):
    rng = random.Random(seed)
    return [{
        "region": rng.choice(["na", "eu", "ap", "sa"]),
        "product": f"p{rng.randrange(12)}",
        "price": round(rng.uniform(1.0, 90.0), 2),
        "qty": rng.randrange(0, 9),
        "ok": rng.random() < 0.5,
    } for _ in range(n)]


def under(q, **options):
    """``q`` with its context's ExecOptions updated by ``options``."""
    q.ctx.options = dataclasses.replace(q.ctx.options, **options)
    return q


def both(q, exact=True):
    """Collect through each engine and assert equivalence."""
    a = under(q, columnar=True).collect()
    b = under(q, columnar=False).collect()
    if exact:
        assert list(map(repr, a)) == list(map(repr, b))
    else:
        assert sorted(map(repr, a)) == sorted(map(repr, b))
    return a


# -- batch / array building blocks ----------------------------------------


class TestMakeArray:
    def test_dtypes(self):
        assert make_array([1, 2, 3]).dtype == np.int64
        assert make_array([1.5, 2.0]).dtype == np.float64
        assert make_array([True, False]).dtype == bool
        assert make_array(["a", "b"]).dtype == object
        # bool is not an int here: mixing must preserve exact reprs
        assert make_array([True, 1]).dtype == object
        assert make_array([1, 2.5]).dtype == object
        assert make_array([1, None]).dtype == object
        assert make_array([]).dtype == object

    def test_int64_overflow_keeps_python_ints(self):
        big = 2 ** 80
        arr = make_array([big, 1])
        assert arr.dtype == object
        assert arr.tolist() == [big, 1]

    def test_roundtrip_is_lossless(self):
        rows = [{"a": 1, "b": "x", "c": 2.5, "d": True},
                {"a": 7, "b": None, "c": -0.5, "d": False}]
        batch = ColumnBatch.from_rows(rows, ["a", "b", "c", "d"])
        assert list(map(repr, batch.to_rows())) == list(map(repr, rows))


# -- fixed query shapes ----------------------------------------------------


class TestQueryShapes:
    def test_select_where(self, ctx):
        df = DataFrame.from_rows(ctx, sales_rows())
        both(df.where(col("qty") > 3).select(
            "region", (col("price") * col("qty")).alias("rev")))

    def test_with_column_chain(self, ctx):
        df = DataFrame.from_rows(ctx, sales_rows())
        both(df.with_column("rev", col("price") * col("qty"))
               .with_column("half", col("rev") / 2)
               .where(col("half") > 10))

    def test_group_agg_all_functions(self, ctx):
        df = DataFrame.from_rows(ctx, sales_rows())
        both(df.group_by("region").agg(
            total=sum_(col("price")), n=count_(), mean=avg_(col("qty")),
            lo=min_(col("price")), hi=max_(col("price"))))

    def test_multi_key_group(self, ctx):
        df = DataFrame.from_rows(ctx, sales_rows())
        both(df.group_by("region", "product").agg(n=count_(),
                                                  s=sum_(col("qty"))))

    def test_int_key_group_is_vectorized_and_exact(self, ctx):
        df = DataFrame.from_rows(ctx, sales_rows())
        both(df.group_by("qty").agg(n=count_(), s=sum_(col("price"))))

    def test_bool_ops_and_not(self, ctx):
        df = DataFrame.from_rows(ctx, sales_rows())
        both(df.where((col("ok") & (col("qty") > 2)) |
                      ~(col("price") > 50.0)))

    def test_bool_aggregates(self, ctx):
        # sum/min/max over a bool column keeps the row path's exact reprs
        df = DataFrame.from_rows(ctx, sales_rows())
        both(df.group_by("region").agg(
            s=sum_(col("ok")), lo=min_(col("ok")), hi=max_(col("ok")),
            m=avg_(col("ok"))))

    def test_literal_and_negation_columns(self, ctx):
        df = DataFrame.from_rows(ctx, sales_rows())
        both(df.select("region", lit(7).alias("seven"),
                       (-col("qty")).alias("negq"),
                       (col("qty") % 3).alias("m")))

    def test_join_orderby_limit_distinct_fallback(self, ctx):
        df = DataFrame.from_rows(ctx, sales_rows())
        dims = DataFrame.from_rows(ctx, [
            {"region": r, "zone": z}
            for r, z in [("na", 1), ("eu", 2), ("ap", 3), ("sa", 4)]])
        both(df.join(dims, on="region")
               .where(col("zone") > 1)
               .order_by("price", ascending=False).limit(25))
        both(df.select("region", "product").distinct(), exact=False)

    def test_columnar_resumes_above_row_fallback(self, ctx):
        # join (row) -> with_column/where/group_by re-enter columnar
        df = DataFrame.from_rows(ctx, sales_rows())
        dims = DataFrame.from_rows(ctx, [
            {"region": r, "zone": z}
            for r, z in [("na", 1), ("eu", 2), ("ap", 3), ("sa", 4)]])
        both(df.join(dims, on="region")
               .with_column("wrev", col("price") * col("zone"))
               .where(col("wrev") > 20)
               .group_by("zone").agg(n=count_(), t=sum_(col("wrev"))))

    def test_empty_frame(self, ctx):
        df = DataFrame.from_rows(ctx, [], schema=["a", "b"])
        both(df.where(col("a") > 0).select("b"))
        both(df.group_by("a").agg(n=count_()))

    def test_count_action(self, ctx):
        df = DataFrame.from_rows(ctx, sales_rows())
        q = df.where(col("ok"))
        assert under(q, columnar=True).count() == \
            under(q, columnar=False).count()

    def test_unoptimized_equivalence(self, ctx):
        df = DataFrame.from_rows(ctx, sales_rows())
        q = df.with_column("rev", col("price") * col("qty")).where(
            col("rev") > 30).group_by("region").agg(t=sum_(col("rev")))
        a = under(q, columnar=True).collect(optimized=False)
        b = under(q, columnar=False).collect(optimized=False)
        assert list(map(repr, a)) == list(map(repr, b))


# -- the UDF fallback boundary --------------------------------------------


class TestUdfBoundary:
    def test_udf_sees_python_scalars(self, ctx):
        df = DataFrame.from_rows(ctx, sales_rows())
        seen = []
        q = df.select(
            col("qty").apply(lambda v: seen.append(type(v)) or v + 1,
                             "inc").alias("q1"))
        out = under(q, columnar=True).collect()
        assert all(t is int for t in seen)        # never numpy scalars
        assert [r["q1"] for r in out] == \
            [r["q1"] for r in under(q, columnar=False).collect()]

    def test_udf_inside_vectorized_expression(self, ctx):
        df = DataFrame.from_rows(ctx, sales_rows())
        both(df.with_column(
            "x", (col("product").apply(lambda s: len(s), "strlen") *
                  col("qty")) + 1).where(col("x") % 2 == 0))

    def test_udf_in_predicate_and_agg_input(self, ctx):
        df = DataFrame.from_rows(ctx, sales_rows())
        both(df.where(col("product").apply(
                lambda s: s.endswith(("1", "3")), "odd_ish"))
               .group_by("region")
               .agg(t=sum_(col("qty").apply(lambda v: v * 10, "tens"))))


# -- counted row-interpreter fallback --------------------------------------


def row_fallbacks(q):
    """``sql.columnar_row_fallbacks`` counted while compiling ``q``."""
    reg = MetricsRegistry()
    prev = set_registry(reg)
    try:
        q.collect()
    finally:
        set_registry(prev)
    return reg.value("sql.columnar_row_fallbacks")


def test_row_fallback_is_counted(ctx):
    df = DataFrame.from_rows(ctx, sales_rows())
    ordered = df.order_by("price").limit(5)
    assert row_fallbacks(ordered) >= 1
    assert row_fallbacks(df.where(col("qty") > 1)
                         .group_by("region").agg(n=count_())) == 0
    # the row engine has no fallback seam to count
    assert row_fallbacks(under(ordered, columnar=False)) == 0


# -- the simulated cluster -------------------------------------------------


def test_simengine_runs_columnar_plans():
    sim = Simulator()
    cl = make_cluster(sim, 2, 3)
    ctx = DataflowContext(default_parallelism=6)
    eng = SimEngine(cl)
    df = DataFrame.from_rows(ctx, sales_rows(n=400))
    q = (df.with_column("rev", col("price") * col("qty"))
           .where(col("rev") > 20)
           .group_by("region").agg(t=sum_(col("rev")), n=count_()))
    res = sim.run_until_done(eng.collect(q.to_dataset()))
    assert list(map(repr, res.value)) == \
        list(map(repr, under(q, columnar=False).collect()))
