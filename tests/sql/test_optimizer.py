"""Optimizer rules: pushdown placement and pruning correctness."""

import pytest

from repro.dataflow import DataflowContext, ExecOptions
from repro.sql import (
    DataFrame,
    Filter,
    Join,
    Project,
    Scan,
    col,
    count_,
    optimize,
    sum_,
)
from repro.sql.frame import _clone


@pytest.fixture
def ctx():
    return DataflowContext(default_parallelism=4)


def rows_a():
    return [{"k": i % 5, "x": i, "y": -i, "unused": "z"} for i in range(40)]


def rows_b():
    return [{"k": i % 5, "w": i * i} for i in range(20)]


def find_nodes(plan, cls):
    out = []

    def walk(p):
        if isinstance(p, cls):
            out.append(p)
        for c in p.children:
            walk(c)
    walk(plan)
    return out


class TestFilterPushdown:
    def test_filter_through_project(self, ctx):
        q = (DataFrame.from_rows(ctx, rows_a())
             .select("k", "x")
             .where(col("x") > 10))
        plan = optimize(_clone(q.plan))
        # the filter must now sit below the project (its child is the scan)
        filt = find_nodes(plan, Filter)[0]
        assert isinstance(filt.child, Scan)

    def test_filter_not_pushed_through_computed_column(self, ctx):
        q = (DataFrame.from_rows(ctx, rows_a())
             .select((col("x") + col("y")).alias("s"))
             .where(col("s") > 0))
        plan = optimize(_clone(q.plan))
        filt = find_nodes(plan, Filter)[0]
        # s is computed: pushing below the project would be unsound
        assert isinstance(filt.child, Project)

    def test_filter_into_join_left(self, ctx):
        a = DataFrame.from_rows(ctx, rows_a())
        b = DataFrame.from_rows(ctx, rows_b())
        q = a.join(b, on="k").where(col("x") > 5)
        plan = optimize(_clone(q.plan))
        join = find_nodes(plan, Join)[0]
        assert isinstance(join.left, Filter)

    def test_filter_into_join_right_inner_only(self, ctx):
        a = DataFrame.from_rows(ctx, rows_a())
        b = DataFrame.from_rows(ctx, rows_b())
        inner = a.join(b, on="k").where(col("w") > 5)
        plan = optimize(_clone(inner.plan))
        assert isinstance(find_nodes(plan, Join)[0].right, Filter)
        left = a.join(b, on="k", how="left").where(col("w") > 5)
        plan2 = optimize(_clone(left.plan))
        # unsafe for LEFT joins: must stay above
        assert isinstance(plan2, Filter)

    def test_filter_rewritten_through_rename(self, ctx):
        q = (DataFrame.from_rows(ctx, rows_a())
             .select(col("x").alias("renamed"), col("k"))
             .where(col("renamed") > 30))
        plan = optimize(_clone(q.plan))
        filt = find_nodes(plan, Filter)[0]
        assert isinstance(filt.child, Scan)
        # and results are still right
        got = q.collect()
        assert all(r["renamed"] > 30 for r in got)
        assert len(got) == 9


class TestColumnPruning:
    def test_scan_narrowed(self, ctx):
        q = (DataFrame.from_rows(ctx, rows_a())
             .group_by("k").agg(n=count_()))
        plan = optimize(_clone(q.plan))
        scan = find_nodes(plan, Scan)[0]
        assert scan.columns == ["k"]

    def test_unused_never_leaves_scan(self, ctx):
        q = (DataFrame.from_rows(ctx, rows_a())
             .where(col("x") > 3)
             .select("k", "x"))
        plan = optimize(_clone(q.plan))
        scan = find_nodes(plan, Scan)[0]
        assert "unused" not in scan.columns and "y" not in scan.columns

    def test_join_sides_pruned_independently(self, ctx):
        a = DataFrame.from_rows(ctx, rows_a(), name="A")
        b = DataFrame.from_rows(ctx, rows_b(), name="B")
        q = a.join(b, on="k").group_by("k").agg(s=sum_(col("w")))
        plan = optimize(_clone(q.plan))
        by_name = {s.name: s for s in find_nodes(plan, Scan)}
        assert by_name["A"].columns == ["k"]            # a: only the key
        assert set(by_name["B"].columns) == {"k", "w"}

    def test_pruned_project_drops_dead_exprs(self, ctx):
        q = (DataFrame.from_rows(ctx, rows_a())
             .with_column("rev", col("x") * 2)
             .group_by("k").agg(s=sum_(col("rev"))))
        plan = optimize(_clone(q.plan))
        proj = find_nodes(plan, Project)[0]
        assert set(e.name for e in proj.exprs) == {"k", "rev"}

    def test_shuffle_volume_actually_shrinks(self, ctx):
        """The point of it all: optimized plans move fewer bytes.

        Joins shuffle whole rows, so pruning a fat unused column before
        the join slashes the wire volume.  (Group-by alone would not show
        this: its map-side combiner already shuffles compact states.)
        """
        fat = [{"k": i % 10, "x": i, "pad": "p" * 500} for i in range(300)]
        dims = [{"k": i, "label": f"g{i}"} for i in range(10)]

        def shuffled_bytes(optimized, columnar):
            c = DataflowContext(options=ExecOptions(columnar=columnar))
            q = (DataFrame.from_rows(c, fat, name="fact")
                 .join(DataFrame.from_rows(c, dims, name="dim"), on="k")
                 .group_by("label").agg(s=sum_(col("x"))))
            q.collect(optimized=optimized)
            return sum(m.bytes_written
                       for m in c.local_executor.shuffle_metrics.values())
        # calibrated on the row interpreter, which pickles whole row dicts
        assert shuffled_bytes(True, False) < shuffled_bytes(False, False) / 5
        # the columnar block shuffle compresses the fat column so the
        # unoptimized baseline is already far smaller; pruning must still
        # strictly shrink what goes over the wire
        assert shuffled_bytes(True, True) < shuffled_bytes(False, True)


class TestJoinFilterInteraction:
    """Conjunct-splitting at the join boundary (the PR-7 audit fix)."""

    def test_mixed_conjunction_splits_across_join(self, ctx):
        a = DataFrame.from_rows(ctx, rows_a(), name="A")
        b = DataFrame.from_rows(ctx, rows_b(), name="B")
        q = a.join(b, on="k").where(
            (col("x") > 3) & (col("w") < 100) & (col("x") < col("w")))
        plan = optimize(_clone(q.plan))
        join = find_nodes(plan, Join)[0]
        # one-sided conjuncts sank into their sides...
        left_f = find_nodes(join.left, Filter)
        right_f = find_nodes(join.right, Filter)
        assert left_f and left_f[0].predicate.references() == {"x"}
        assert right_f and right_f[0].predicate.references() == {"w"}
        # ...and the cross-side conjunct stayed above the join
        top = find_nodes(plan, Filter)[0]
        assert top.predicate.references() == {"x", "w"}
        assert isinstance(top.child, Join)

    def test_both_sides_conjunct_never_pushes(self, ctx):
        a = DataFrame.from_rows(ctx, rows_a(), name="A")
        b = DataFrame.from_rows(ctx, rows_b(), name="B")
        q = a.join(b, on="k").where(col("x") < col("w"))
        plan = optimize(_clone(q.plan))
        join = find_nodes(plan, Join)[0]
        assert not find_nodes(join.left, Filter)
        assert not find_nodes(join.right, Filter)

    def test_left_join_keeps_right_conjunct_above(self, ctx):
        a = DataFrame.from_rows(ctx, rows_a(), name="A")
        b = DataFrame.from_rows(ctx, rows_b(), name="B")
        q = a.join(b, on="k", how="left").where(
            (col("x") > 3) & (col("w") < 100))
        plan = optimize(_clone(q.plan))
        join = find_nodes(plan, Join)[0]
        assert find_nodes(join.left, Filter)        # left side still sinks
        assert not find_nodes(join.right, Filter)   # right must not
        top = find_nodes(plan, Filter)[0]
        assert top.predicate.references() == {"w"}

    def _no_foreign_filters(self, plan):
        """No filter anywhere references columns outside its child schema."""
        for f in find_nodes(plan, Filter):
            assert f.predicate.references() <= set(f.child.schema), \
                f"filter over {f.predicate.references()} below schema " \
                f"{f.child.schema}"

    @pytest.mark.parametrize("seed", range(10))
    def test_randomized_plans_optimize_equivalently(self, seed):
        import random
        rng = random.Random(seed)
        ctx = DataflowContext(default_parallelism=4)
        a = DataFrame.from_rows(ctx, rows_a(), name="A")
        b = DataFrame.from_rows(ctx, rows_b(), name="B")
        how = rng.choice(["inner", "left"])
        q = a.join(b, on="k", how=how)
        sided = {"left": ["x", "y"], "right": ["w"], "both": None}
        for _ in range(rng.randrange(1, 4)):
            kind = rng.choice(["left", "right", "both", "and"])
            if kind == "left":
                q = q.where(col(rng.choice(sided["left"])) > rng.randrange(-20, 20))
            elif kind == "right":
                q = q.where(col("w") < rng.randrange(0, 300))
            elif kind == "both":
                q = q.where(col("x") < col("w"))
            else:
                q = q.where((col("x") > rng.randrange(-5, 10)) &
                            (col("w") < rng.randrange(50, 300)) &
                            (col("y") < rng.randrange(0, 20)))
        if rng.random() < 0.5:
            q = q.group_by("k").agg(n=count_(), s=sum_(col("x")))
        plain = q.collect(optimized=False)
        opt = q.collect(optimized=True)
        assert sorted(map(repr, plain)) == sorted(map(repr, opt))
        self._no_foreign_filters(optimize(_clone(q.plan)))
