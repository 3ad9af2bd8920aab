"""The DataFrame API and the logical-plan → Dataset compiler.

A thin, typed structured layer over the dataflow engine::

    df = DataFrame.from_rows(ctx, rows)          # rows: list[dict]
    out = (df.where(col("qty") > 0)
             .with_column("revenue", col("price") * col("qty"))
             .group_by("region")
             .agg(total=sum_(col("revenue")), orders=count_())
             .order_by("total", ascending=False)
             .collect())

``collect(optimize=False)`` skips the optimizer, which is how ablation A5
quantifies what pushdown + pruning buy.
"""

from __future__ import annotations

import heapq
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from ..common.errors import PlanError
from ..dataflow.context import DataflowContext
from ..dataflow.plan import CoGroupedDataset, Dataset
from .adaptive import (
    AdaptiveReport,
    BroadcastJoin,
    TopK,
    adapt,
    join_partitioner,
)
from .expr import Column, Expr, col
from .logical import (
    AggSpec,
    Distinct,
    Filter,
    GroupAgg,
    Join,
    Limit,
    LogicalPlan,
    OrderBy,
    Project,
    Scan,
)
from .optimizer import optimize

__all__ = ["DataFrame", "GroupedFrame",
           "sum_", "count_", "avg_", "min_", "max_"]


class _PartialAgg:
    """An aggregate awaiting its output name (given by .agg(name=...))."""

    def __init__(self, fn: str, expr: Optional[Expr]) -> None:
        self.fn = fn
        self.expr = expr


def sum_(expr: Expr) -> _PartialAgg:
    """SUM(expr)."""
    return _PartialAgg("sum", expr)


def count_() -> _PartialAgg:
    """COUNT(*)."""
    return _PartialAgg("count", None)


def avg_(expr: Expr) -> _PartialAgg:
    """AVG(expr)."""
    return _PartialAgg("avg", expr)


def min_(expr: Expr) -> _PartialAgg:
    """MIN(expr)."""
    return _PartialAgg("min", expr)


def max_(expr: Expr) -> _PartialAgg:
    """MAX(expr)."""
    return _PartialAgg("max", expr)


class DataFrame:
    """An immutable named-column relation backed by a logical plan."""

    def __init__(self, ctx: DataflowContext, plan: LogicalPlan,
                 n_partitions: Optional[int] = None) -> None:
        self.ctx = ctx
        self.plan = plan
        self.n_partitions = n_partitions or ctx.default_parallelism

    # -- construction -------------------------------------------------------

    @classmethod
    def from_rows(cls, ctx: DataflowContext,
                  rows: Sequence[Dict[str, Any]],
                  schema: Optional[List[str]] = None,
                  name: str = "table",
                  n_partitions: Optional[int] = None) -> "DataFrame":
        """A DataFrame over in-memory dict rows.

        ``schema`` defaults to the keys of the first row (ordered).
        """
        rows = list(rows)
        if schema is None:
            if not rows:
                raise PlanError("schema required for an empty table")
            schema = list(rows[0].keys())
        return cls(ctx, Scan(rows, schema, name=name), n_partitions)

    # -- relational operators --------------------------------------------------

    @property
    def schema(self) -> List[str]:
        """Ordered output column names."""
        return self.plan.schema

    def _with(self, plan: LogicalPlan) -> "DataFrame":
        return DataFrame(self.ctx, plan, self.n_partitions)

    def select(self, *cols: Union[str, Expr]) -> "DataFrame":
        """Project columns/expressions."""
        exprs = [col(c) if isinstance(c, str) else c for c in cols]
        return self._with(Project(self.plan, exprs))

    def where(self, predicate: Expr) -> "DataFrame":
        """Keep rows satisfying ``predicate``."""
        return self._with(Filter(self.plan, predicate))

    def with_column(self, name: str, expr: Expr) -> "DataFrame":
        """Current columns plus one computed column."""
        exprs: List[Expr] = [col(c) for c in self.schema if c != name]
        exprs.append(expr.alias(name))
        return self._with(Project(self.plan, exprs))

    def group_by(self, *keys: str) -> "GroupedFrame":
        """Start a grouped aggregation."""
        for k in keys:
            if k not in self.schema:
                raise PlanError(f"group key {k!r} not in schema")
        return GroupedFrame(self, list(keys))

    def join(self, other: "DataFrame", on: Union[str, List[str]],
             how: str = "inner") -> "DataFrame":
        """Equi-join on shared columns."""
        on_list = [on] if isinstance(on, str) else list(on)
        clash = (set(self.schema) & set(other.schema)) - set(on_list)
        if clash:
            raise PlanError(
                f"ambiguous non-key columns {sorted(clash)}; rename first")
        return self._with(Join(self.plan, other.plan, on_list, how))

    def order_by(self, key: str, ascending: bool = True) -> "DataFrame":
        """Global sort by a column."""
        return self._with(OrderBy(self.plan, key, ascending))

    def limit(self, n: int) -> "DataFrame":
        """First ``n`` rows."""
        return self._with(Limit(self.plan, n))

    def distinct(self) -> "DataFrame":
        """Unique rows."""
        return self._with(Distinct(self.plan))

    # -- execution ------------------------------------------------------------

    def explain(self, optimized: bool = True) -> str:
        """The logical plan tree as text (optionally after optimization)."""
        plan = optimize(_clone(self.plan)) if optimized else self.plan
        return plan.describe()

    def to_dataset(self, optimized: bool = True) -> Dataset:
        """Compile to a Dataset of dict rows.

        The context's :class:`~repro.dataflow.context.ExecOptions` pick
        the engine: ``columnar`` selects the vectorized (True) or
        interpreted (False) lowering — both produce identical rows in
        identical order — and a non-None ``adaptive`` config re-plans
        with measured statistics (:mod:`repro.sql.adaptive`).
        Adaptation happens on the logical plan *before* engine lowering,
        so both engines execute the same adapted plan.
        """
        plan = optimize(_clone(self.plan)) if optimized else self.plan
        options = self.ctx.options
        self.last_adaptive_report: Optional[AdaptiveReport] = None
        if options.adaptive is not None:
            if not optimized:
                plan = _clone(plan)      # adapt annotates nodes in place
            plan, report = adapt(plan, self.ctx, self.n_partitions,
                                 options.adaptive)
            self.last_adaptive_report = report
        if options.columnar:
            from .columnar import compile_columnar
            return compile_columnar(plan, self.ctx, self.n_partitions)
        return _compile(plan, self.ctx, self.n_partitions)

    def collect(self, optimized: bool = True) -> List[Dict[str, Any]]:
        """All rows as dicts."""
        return self.to_dataset(optimized).collect()

    def count(self, optimized: bool = True) -> int:
        """Number of rows."""
        return self.to_dataset(optimized).count()

    def show(self, n: int = 20) -> None:
        """Print up to ``n`` rows as an aligned table."""
        from ..bench.harness import Table
        rows = self.to_dataset().collect()[:n]
        t = Table(f"DataFrame ({len(rows)} rows shown)", self.schema)
        for r in rows:
            t.add_row([r.get(c) for c in self.schema])
        t.show()


class GroupedFrame:
    """Intermediate grouped state: finish with :meth:`agg`."""

    def __init__(self, df: DataFrame, keys: List[str]) -> None:
        self._df = df
        self._keys = keys

    def agg(self, **named: _PartialAgg) -> DataFrame:
        """Compute named aggregates, e.g. ``agg(total=sum_(col("x")))``."""
        if not named:
            raise PlanError("agg() needs at least one aggregate")
        specs = [AggSpec(p.fn, p.expr, out) for out, p in named.items()]
        return self._df._with(GroupAgg(self._df.plan, self._keys, specs))


# -- compiler -------------------------------------------------------------------


def _sort_token(row: Dict[str, Any], schema: Tuple[str, ...]) -> str:
    """Content-based tie-break for sorts: the row's values as one repr.

    ``order_by`` ties used to resolve by physical arrival order, which
    adaptive re-planning (broadcast joins, skew isolation) upstream
    perturbs; breaking ties on row content makes sorted output a pure
    function of the result *set*, so AQE and executor choice can never
    change the bytes of an ordered query.
    """
    return repr([row[c] for c in schema])


def _broadcast_table(right_rows: List[Dict[str, Any]],
                     on: Tuple[str, ...],
                     right_extra: Tuple[str, ...],
                     ) -> Dict[tuple, List[tuple]]:
    """Key tuple -> list of right-extra value tuples, in arrival order.

    Shared by both engines so the probe sees an identical table (same
    insertion order, same Python-equality key semantics as the shuffle
    join's cogroup dict).
    """
    table: Dict[tuple, List[tuple]] = {}
    for r in right_rows:
        key = tuple(r[c] for c in on)
        vals = tuple(r[c] for c in right_extra)
        slot = table.get(key)
        if slot is None:
            table[key] = [vals]
        else:
            slot.append(vals)
    return table


def _clone(plan: LogicalPlan) -> LogicalPlan:
    """Structural copy so the optimizer can mutate safely."""
    if isinstance(plan, Scan):
        return Scan(plan.rows, plan.full_schema, plan.name,
                    columns=list(plan.columns))
    if isinstance(plan, Project):
        return Project(_clone(plan.child), plan.exprs)
    if isinstance(plan, Filter):
        return Filter(_clone(plan.child), plan.predicate)
    if isinstance(plan, GroupAgg):
        return GroupAgg(_clone(plan.child), plan.keys, plan.aggs)
    if isinstance(plan, Join):
        cloned = Join(_clone(plan.left), _clone(plan.right), plan.on,
                      plan.how)
        hot = getattr(plan, "skew_keys", None)
        if hot:
            cloned.skew_keys = list(hot)
        return cloned
    if isinstance(plan, BroadcastJoin):
        return BroadcastJoin(_clone(plan.left), _clone(plan.right),
                             plan.on, plan.how)
    if isinstance(plan, OrderBy):
        return OrderBy(_clone(plan.child), plan.key, plan.ascending)
    if isinstance(plan, TopK):
        return TopK(_clone(plan.child), plan.key, plan.ascending, plan.n)
    if isinstance(plan, Limit):
        return Limit(_clone(plan.child), plan.n)
    if isinstance(plan, Distinct):
        return Distinct(_clone(plan.child))
    raise PlanError(f"cannot clone {type(plan).__name__}")


def _compile(plan: LogicalPlan, ctx: DataflowContext,
             n_partitions: int) -> Dataset:
    """Row-interpreter compilation: lower the whole tree recursively."""
    children = [_compile(c, ctx, n_partitions) for c in plan.children]
    return _lower_row(plan, children, ctx, n_partitions)


def _lower_row(plan: LogicalPlan, children: List[Dataset],
               ctx: DataflowContext, n_partitions: int) -> Dataset:
    """Lower ONE operator over pre-compiled child row datasets.

    Shared with the columnar engine, which calls in here per operator for
    the node kinds it does not vectorize (join/order_by/limit/distinct).
    """
    if isinstance(plan, Scan):
        cols_ = plan.columns
        rows = [{c: r[c] for c in cols_} for r in plan.rows]
        return ctx.parallelize(rows, n_partitions)

    if isinstance(plan, Project):
        child = children[0]
        exprs = plan.exprs
        return child.map(
            lambda row, _e=tuple(exprs): {e.name: e.eval(row) for e in _e})

    if isinstance(plan, Filter):
        child = children[0]
        pred = plan.predicate
        return child.filter(lambda row, _p=pred: bool(_p.eval(row)))

    if isinstance(plan, GroupAgg):
        child = children[0]
        keys, aggs = plan.keys, plan.aggs

        def to_kv(row, _k=tuple(keys), _a=tuple(aggs)):
            key = tuple(row[c] for c in _k)
            vals = tuple(a.expr.eval(row) if a.expr is not None else None
                         for a in _a)
            return (key, vals)

        def create(vals, _a=tuple(aggs)):
            return tuple(a.create(v) for a, v in zip(_a, vals))

        def merge_value(acc, vals, _a=tuple(aggs)):
            return tuple(a.merge_value(s, v)
                         for a, s, v in zip(_a, acc, vals))

        def merge_states(a1, a2, _a=tuple(aggs)):
            return tuple(a.merge_states(x, y)
                         for a, x, y in zip(_a, a1, a2))

        def to_row(kv, _k=tuple(keys), _a=tuple(aggs)):
            key, states = kv
            row = dict(zip(_k, key))
            for a, s in zip(_a, states):
                row[a.out] = a.finish(s)
            return row
        return (child.map(to_kv)
                .combine_by_key(create, merge_value, merge_states,
                                n_partitions)
                .map(to_row))

    if isinstance(plan, Join):
        left, right = children
        on = tuple(plan.on)
        right_extra = tuple(c for c in plan.right.schema if c not in plan.on)
        lkv = left.map(lambda r, _on=on: (tuple(r[c] for c in _on), r))
        rkv = right.map(lambda r, _on=on: (tuple(r[c] for c in _on), r))
        # the partitioner carries any AQE skew annotation; sharing it
        # with the columnar kernel keeps reduce-side arrival order (and
        # with it the output bytes) identical across engines
        grouped = CoGroupedDataset(ctx, [lkv, rkv],
                                   join_partitioner(plan, n_partitions))
        how = plan.how

        def emit(kv, _extra=right_extra, _how=how):
            _key, (lefts, rights) = kv
            if not rights and _how == "left":
                rights = [dict.fromkeys(_extra)]
            out = []
            for lr in lefts:
                for rr in rights:
                    merged = dict(lr)
                    for c in _extra:
                        merged[c] = rr.get(c)
                    out.append(merged)
            return out
        return grouped.flat_map(emit)

    if isinstance(plan, BroadcastJoin):
        left, right = children
        on = tuple(plan.on)
        right_extra = tuple(c for c in plan.right.schema if c not in plan.on)
        # build side: one eager local job at plan time (the same seam
        # sort_by uses for boundary sampling), shipped once per node
        table = _broadcast_table(ctx.local_executor.collect(right),
                                 on, right_extra)
        bc = ctx.broadcast(table)
        how = plan.how

        def probe(rows, _bc=bc, _on=on, _extra=right_extra, _how=how):
            lookup = _bc.value
            out = []
            for r in rows:
                matches = lookup.get(tuple(r[c] for c in _on))
                if matches is None:
                    if _how == "left":
                        merged = dict(r)
                        for c in _extra:
                            merged[c] = None
                        out.append(merged)
                    continue
                for vals in matches:
                    merged = dict(r)
                    for c, v in zip(_extra, vals):
                        merged[c] = v
                    out.append(merged)
            return out
        return left.map_partitions(probe)

    if isinstance(plan, OrderBy):
        child = children[0]
        key = plan.key
        schema = tuple(plan.schema)
        return child.sort_by(
            lambda r, _k=key, _s=schema: (r[_k], _sort_token(r, _s)),
            ascending=plan.ascending,
            n_partitions=n_partitions)

    if isinstance(plan, TopK):
        child = children[0]
        key, asc = plan.key, plan.ascending
        n, schema = plan.n, tuple(plan.schema)

        def head(it, _k=key, _s=schema, _n=n, _asc=asc):
            def sk(r):
                return (r[_k], _sort_token(r, _s))
            pick = heapq.nsmallest if _asc else heapq.nlargest
            return pick(_n, it, key=sk)
        # per-partition bounded heads, then one merging head: identical
        # bytes to the full sort + limit it replaces (the content-based
        # tie-break makes the top-k set and order unique)
        return child.map_partitions(head).coalesce(1).map_partitions(head)

    if isinstance(plan, Limit):
        child = children[0]
        n = plan.n
        # classic distributed limit: truncate per partition, funnel to one
        return (child.map_partitions(
                    lambda it, _n=n: list(it)[:_n])
                .coalesce(1)
                .map_partitions(lambda it, _n=n: list(it)[:_n]))

    if isinstance(plan, Distinct):
        child = children[0]
        schema = tuple(plan.schema)
        return (child.map(lambda r, _s=schema: tuple(r[c] for c in _s))
                .distinct(n_partitions)
                .map(lambda t, _s=schema: dict(zip(_s, t))))

    raise PlanError(f"cannot compile {type(plan).__name__}")
