"""Columnar (vectorized) execution for the structured layer.

MonetDB/X100-style batch execution: each partition of a compiled query
holds ONE :class:`ColumnBatch` — a dict of numpy arrays, one per column —
and ``select`` / ``where`` / ``with_column`` / ``group_by().agg()`` /
``join`` are lowered to whole-array numpy kernels instead of per-row
``Expr.eval`` over dicts.  Hash aggregation factorizes the group keys
(first-occurrence order, matching the row interpreter's dict-insertion
order) and reduces with ``np.bincount`` / ``ufunc.at``.  Joins use the
same factorize discipline: per-partition column *blocks* shuffle to the
row path's reduce partitions, where a hash or sort-merge probe emits
matches with repeat/tile index arrays (see the vectorized-joins section
below for the exact order contract).

Equivalence contract (the columnar/row property tests assert it):

* results are identical rows, in identical order, to the interpreted
  path — values come back as plain Python scalars via ``ndarray.tolist``;
* per-partition aggregate partials fold in row order (``ufunc.at`` is
  applied in index order), so float accumulations are bit-identical to
  the interpreted fold and downstream shuffles see the same bytes;
* any ``Expr.apply`` (UDF) node falls back to per-element Python *inside*
  the enclosing vectorized expression, and operators the columnar engine
  does not cover (order_by / top-k / limit / distinct) fall back to the
  row interpreter per-operator, converting batches to rows at the seam
  (each such operator counts ``sql.columnar_row_fallbacks`` on the obs
  metrics registry when one is installed).

Known divergences from the row interpreter (documented, not silent):
int64 arithmetic can overflow where Python ints cannot; division by zero
follows numpy (inf/nan) rather than raising; NaN group keys and ``-0.0``
sums keep numpy semantics.  Run the query on a context with
``ExecOptions(columnar=False)`` when exact interpreted behaviour is
needed on such inputs.
"""

from __future__ import annotations

import operator
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..common.errors import PlanError
from ..dataflow.partitioner import DirectPartitioner
from ..obs.metrics import get_registry
from .adaptive import BroadcastJoin, join_partitioner
from .expr import Column, Expr, Literal, _Aliased, _BinOp, _UnaryOp
from .logical import (
    AggSpec,
    Filter,
    GroupAgg,
    Join,
    LogicalPlan,
    Project,
    Scan,
)

__all__ = [
    "ColumnBatch", "make_array", "eval_expr",
    "compile_columnar",
]


# -- column batches ----------------------------------------------------------


def make_array(values: Sequence) -> np.ndarray:
    """A 1-d array for one column, typed so round-trips are lossless.

    Only homogeneous ``int`` / ``float`` / ``bool`` columns (exact type
    match — ``bool`` is not an ``int`` here) get native dtypes; anything
    mixed, string, or None-bearing stays ``object`` so ``tolist`` returns
    the original Python objects unchanged.
    """
    if values:
        if all(type(v) is bool for v in values):
            return np.array(values, dtype=bool)
        if all(type(v) is int for v in values):
            try:
                return np.array(values, dtype=np.int64)
            except OverflowError:
                pass                      # beyond int64: keep Python ints
        elif all(type(v) is float for v in values):
            return np.array(values, dtype=np.float64)
    arr = np.empty(len(values), dtype=object)
    arr[:] = list(values)
    return arr


class ColumnBatch:
    """One partition's rows as named columns (numpy arrays)."""

    __slots__ = ("schema", "cols", "n")

    def __init__(self, schema: Sequence[str], cols: Dict[str, np.ndarray],
                 n: int) -> None:
        self.schema = list(schema)
        self.cols = cols
        self.n = n

    @classmethod
    def from_rows(cls, rows: Sequence[Dict[str, Any]],
                  schema: Sequence[str]) -> "ColumnBatch":
        cols = {c: make_array([r[c] for r in rows]) for c in schema}
        return cls(schema, cols, len(rows))

    def to_rows(self) -> List[Dict[str, Any]]:
        """Back to dict rows; values become plain Python scalars."""
        lists = [self.cols[c].tolist() for c in self.schema]
        names = self.schema
        return [dict(zip(names, vals)) for vals in zip(*lists)]

    def take(self, mask: np.ndarray) -> "ColumnBatch":
        """Rows where ``mask`` is true, order preserved."""
        cols = {c: a[mask] for c, a in self.cols.items()}
        n = int(np.count_nonzero(mask))
        return ColumnBatch(self.schema, cols, n)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<ColumnBatch n={self.n} cols={self.schema}>"


# -- vectorized expression evaluation ----------------------------------------

_BIN_OPS = {
    "+": operator.add, "-": operator.sub, "*": operator.mul,
    "/": operator.truediv, "%": operator.mod,
    "==": operator.eq, "!=": operator.ne,
    "<": operator.lt, "<=": operator.le,
    ">": operator.gt, ">=": operator.ge,
}


def _as_bool(v):
    if isinstance(v, np.ndarray):
        return v if v.dtype == bool else v.astype(bool)
    return bool(v)


def eval_expr(expr: Expr, batch: ColumnBatch):
    """``expr`` over the whole batch: an ndarray of length ``batch.n``,
    or a Python scalar for constant subexpressions (broadcast by callers).
    """
    if isinstance(expr, Column):
        try:
            return batch.cols[expr.name]
        except KeyError:
            raise PlanError(f"batch has no column {expr.name!r}")
    if isinstance(expr, Literal):
        return expr._value
    if isinstance(expr, _Aliased):
        return eval_expr(expr._inner, batch)
    if isinstance(expr, _BinOp):
        left = eval_expr(expr._l, batch)
        right = eval_expr(expr._r, batch)
        sym = expr._symbol
        if sym == "AND":
            return _as_bool(left) & _as_bool(right)
        if sym == "OR":
            return _as_bool(left) | _as_bool(right)
        fn = _BIN_OPS.get(sym)
        if fn is not None:
            with np.errstate(all="ignore"):
                return fn(left, right)
        return _elementwise2(expr._op, left, right, batch.n)
    if isinstance(expr, _UnaryOp):
        inner = eval_expr(expr._inner, batch)
        if not expr._udf:
            if expr._op is operator.not_:
                v = _as_bool(inner)
                return ~v if isinstance(v, np.ndarray) else (not inner)
            if expr._op is operator.neg:
                with np.errstate(all="ignore"):
                    return -inner
        return _elementwise1(expr._op, inner, batch.n)
    # unknown node: fall back to the row interpreter per element
    rows = batch.to_rows()
    return make_array([expr.eval(r) for r in rows])


def _elementwise1(fn, v, n):
    """UDF fallback: apply ``fn`` per element over Python scalars."""
    if isinstance(v, np.ndarray):
        return make_array([fn(x) for x in v.tolist()])
    return fn(v)


def _elementwise2(fn, left, right, n):
    ls = left.tolist() if isinstance(left, np.ndarray) else [left] * n
    rs = right.tolist() if isinstance(right, np.ndarray) else [right] * n
    return make_array([fn(a, b) for a, b in zip(ls, rs)])


def _full_column(v, n) -> np.ndarray:
    """An expression result as a length-``n`` column array."""
    if isinstance(v, np.ndarray):
        return v
    return make_array([v] * n)


# -- batch operators ---------------------------------------------------------


def project_batch(batch: ColumnBatch, exprs: Tuple[Expr, ...]) -> ColumnBatch:
    cols = {e.name: _full_column(eval_expr(e, batch), batch.n)
            for e in exprs}
    return ColumnBatch([e.name for e in exprs], cols, batch.n)


def filter_batch(batch: ColumnBatch, predicate: Expr) -> ColumnBatch:
    mask = eval_expr(predicate, batch)
    if not isinstance(mask, np.ndarray):
        if bool(mask):
            return batch
        return batch.take(np.zeros(batch.n, dtype=bool))
    return batch.take(_as_bool(mask))


# -- hash aggregation --------------------------------------------------------


def factorize(batch: ColumnBatch,
              keys: Tuple[str, ...]) -> Tuple[np.ndarray, List[tuple]]:
    """Group codes per row + distinct key tuples in first-occurrence order.

    First-occurrence order is load-bearing: it matches the interpreted
    path's dict-insertion order, so the rows that leave the map side (and
    ultimately the query) line up exactly.
    """
    if len(keys) == 1:
        arr = batch.cols[keys[0]]
        if arr.dtype == np.int64 or arr.dtype == bool:
            uniq, first_idx, inverse = np.unique(
                arr, return_index=True, return_inverse=True)
            perm = np.argsort(first_idx)           # sorted -> first-occurrence
            inv_perm = np.empty(len(perm), dtype=np.int64)
            inv_perm[perm] = np.arange(len(perm))
            codes = inv_perm[inverse.reshape(-1)]
            return codes, [(k,) for k in uniq[perm].tolist()]
    lists = [batch.cols[c].tolist() for c in keys]
    codes = np.empty(batch.n, dtype=np.int64)
    index: Dict[tuple, int] = {}
    uniq_keys: List[tuple] = []
    for i, key in enumerate(zip(*lists)):
        code = index.get(key)
        if code is None:
            code = len(uniq_keys)
            index[key] = code
            uniq_keys.append(key)
        codes[i] = code
    return codes, uniq_keys


def _fold_states(agg: AggSpec, codes: np.ndarray, n_groups: int,
                 vals: List) -> List:
    """Interpreted per-group fold (object/bool/NaN cases): exact row-path
    semantics via the AggSpec create/merge_value protocol."""
    states: List = [None] * n_groups
    seen = [False] * n_groups
    for g, v in zip(codes.tolist(), vals):
        if seen[g]:
            states[g] = agg.merge_value(states[g], v)
        else:
            states[g] = agg.create(v)
            seen[g] = True
    return states


def _agg_states(agg: AggSpec, codes: np.ndarray, n_groups: int,
                vals: Optional[np.ndarray]) -> List:
    """Per-group partial states for one aggregate (Python scalars)."""
    fn = agg.fn
    if fn == "count":
        return np.bincount(codes, minlength=n_groups).tolist()
    assert vals is not None
    dtype = vals.dtype
    if fn == "sum":
        # bool sums stay interpreted: the row path's first state is the
        # raw bool (create(v) = v), which zeros-init would coerce to int
        if dtype == np.int64 or dtype == np.float64:
            acc = np.zeros(n_groups, dtype=dtype)
            np.add.at(acc, codes, vals)            # in row order: exact
            return acc.tolist()
        return _fold_states(agg, codes, n_groups, vals.tolist())
    if fn in ("min", "max"):
        if dtype == object or \
                (dtype == np.float64 and bool(np.isnan(vals).any())):
            # NaN ordering under <= differs from np.minimum's propagation
            return _fold_states(agg, codes, n_groups, vals.tolist())
        acc = np.empty(n_groups, dtype=dtype)
        acc[codes[::-1]] = vals[::-1]              # first occurrence wins
        (np.minimum if fn == "min" else np.maximum).at(acc, codes, vals)
        return acc.tolist()
    # avg: (sum, count) running state; finish() divides, so int-vs-bool
    # state representation differences cannot reach the output
    if dtype == object:
        return _fold_states(agg, codes, n_groups, vals.tolist())
    acc = np.zeros(n_groups,
                   dtype=np.float64 if dtype == np.float64 else np.int64)
    np.add.at(acc, codes, vals)
    counts = np.bincount(codes, minlength=n_groups)
    return list(zip(acc.tolist(), counts.tolist()))


def agg_partial(batch: ColumnBatch, keys: Tuple[str, ...],
                aggs: Tuple[AggSpec, ...]) -> List[tuple]:
    """One partition's map-side-combined ``(key, states)`` records."""
    if batch.n == 0:
        return []
    codes, uniq_keys = factorize(batch, keys)
    n_groups = len(uniq_keys)
    per_agg: List[List] = []
    for a in aggs:
        vals = None
        if a.expr is not None:
            vals = _full_column(eval_expr(a.expr, batch), batch.n)
        per_agg.append(_agg_states(a, codes, n_groups, vals))
    return [(key, tuple(states[g] for states in per_agg))
            for g, key in enumerate(uniq_keys)]


# -- vectorized joins --------------------------------------------------------
#
# Block-shuffle discipline: the map side factorizes each batch's join
# keys, computes the row-path partitioner's id once per *distinct* key,
# and ships whole per-partition column blocks as ``(reduce_id, block)``
# records through a cogroup on :class:`DirectPartitioner`.  The reduce
# side concatenates each side's blocks in fetch order (map-split order —
# exactly the arrival order the row interpreter's cogroup dict sees),
# re-factorizes the left keys, probes the right side (hash or sort-merge
# kernel), and emits matches with repeat/tile index arrays.  Emission
# order therefore reproduces the row path byte for byte: left-side keys
# in first-arrival order; per key, every left row (arrival order) paired
# with every right row (arrival order); left joins null-extend.  The
# only intentional divergence is the group-by module contract's NaN
# class: float64 key columns lose NaN object identity across the batch
# seam (``tolist`` makes fresh floats), so same-object NaN keys that the
# row path would equate join nothing here — use ``None`` keys for exact
# null semantics.


_EMPTY_IDX = np.empty(0, dtype=np.int64)


def _concat_column(arrays: List[np.ndarray]) -> np.ndarray:
    """Concatenate one column across blocks, preserving row-path values.

    Blocks from different map splits can disagree on dtype (one split
    all-int -> int64, another None-bearing -> object); mixing them through
    ``np.concatenate`` would wrap values in numpy scalars, so mixed runs
    rebuild from Python values instead.
    """
    if len(arrays) == 1:
        return arrays[0]
    if len({a.dtype for a in arrays}) == 1:
        return np.concatenate(arrays)
    vals: List = []
    for a in arrays:
        vals.extend(a.tolist())
    return make_array(vals)


def _concat_batches(batches: List[ColumnBatch],
                    schema: Tuple[str, ...]) -> ColumnBatch:
    if len(batches) == 1:
        return batches[0]
    if not batches:
        return ColumnBatch(list(schema),
                           {c: make_array([]) for c in schema}, 0)
    cols = {c: _concat_column([b.cols[c] for b in batches]) for c in schema}
    return ColumnBatch(list(schema), cols, sum(b.n for b in batches))


def _key_blocks(batch: ColumnBatch, on: Tuple[str, ...],
                part) -> List[Tuple[int, ColumnBatch]]:
    """Map side: split one batch into per-reduce-partition blocks.

    The partitioner runs once per distinct key (on the factorized key
    tuples, which equal the row path's ``tuple(r[c] for c in on)``), so
    block routing agrees element-wise with the row interpreter's
    per-record shuffle."""
    if batch.n == 0:
        return []
    codes, uniq_keys = factorize(batch, on)
    key_pids = np.fromiter((part.partition(k) for k in uniq_keys),
                           dtype=np.int64, count=len(uniq_keys))
    pids = key_pids[codes]
    return [(int(p), batch.take(pids == p))
            for p in np.unique(pids).tolist()]


def _group_indices(codes: np.ndarray, n_groups: int) -> List[np.ndarray]:
    """Row indices per group code, arrival order within each group."""
    order = np.argsort(codes, kind="stable")
    counts = np.bincount(codes, minlength=n_groups)
    bounds = np.concatenate([[0], np.cumsum(counts)])
    return [order[bounds[g]:bounds[g + 1]] for g in range(n_groups)]


def _probe_codes(right_cat: ColumnBatch, on: Tuple[str, ...],
                 uniq_keys: List[tuple]) -> np.ndarray:
    """Left group code per right row (-1 = no matching left key).

    The sort-merge kernel handles single-column integer/bool keys with a
    vectorized binary search over the sorted distinct left keys; every
    other shape falls back to :func:`_probe_hash`, whose codes it must
    reproduce element for element.
    """
    if right_cat.n == 0:
        return _EMPTY_IDX
    if len(on) == 1 and uniq_keys:
        arr = right_cat.cols[on[0]]
        if arr.dtype in (np.dtype(np.int64), np.dtype(bool)) and \
                all(type(k[0]) in (int, bool) for k in uniq_keys):
            try:
                cand = np.fromiter((k[0] for k in uniq_keys),
                                   dtype=np.int64, count=len(uniq_keys))
            except OverflowError:
                cand = None              # beyond int64: hash kernel
            if cand is not None:
                order = np.argsort(cand, kind="stable")
                sorted_cand = cand[order]
                probe = arr.astype(np.int64, copy=False)
                pos = np.minimum(np.searchsorted(sorted_cand, probe),
                                 len(sorted_cand) - 1)
                hit = sorted_cand[pos] == probe
                return np.where(hit, order[pos], -1).astype(np.int64)
    return _probe_hash(right_cat, on, uniq_keys)


def _probe_hash(right_cat: ColumnBatch, on: Tuple[str, ...],
                uniq_keys: List[tuple]) -> np.ndarray:
    """The hash kernel: a Python dict probe with exactly the row path's
    key-equality semantics (so ``1 == 1.0 == True`` collide here just as
    they do in the cogroup dict).  Also the sort-merge kernel's oracle."""
    index = {k: i for i, k in enumerate(uniq_keys)}
    lists = [right_cat.cols[c].tolist() for c in on]
    out = np.empty(right_cat.n, dtype=np.int64)
    for i, key in enumerate(zip(*lists)):
        out[i] = index.get(key, -1)
    return out


def _gather_right(arr: np.ndarray, rt: np.ndarray,
                  has_null: bool) -> np.ndarray:
    """Right-side column values at ``rt`` (-1 entries null-extend)."""
    if not has_null:
        return arr[rt]
    vals = arr.tolist()
    return make_array([vals[i] if i >= 0 else None for i in rt.tolist()])


def _join_reduce(lbs: List[ColumnBatch], rbs: List[ColumnBatch],
                 lschema: Tuple[str, ...], rschema: Tuple[str, ...],
                 on: Tuple[str, ...], right_extra: Tuple[str, ...],
                 how: str) -> List[ColumnBatch]:
    """Reduce side: join one partition's left/right blocks."""
    left_cat = _concat_batches(lbs, lschema)
    if left_cat.n == 0:
        return []
    right_cat = _concat_batches(rbs, rschema)
    codes_l, uniq_keys = factorize(left_cat, on)
    n_groups = len(uniq_keys)
    codes_r = _probe_codes(right_cat, on, uniq_keys)
    lgroups = _group_indices(codes_l, n_groups)
    valid = codes_r >= 0
    ridx = np.nonzero(valid)[0]
    rgroups = _group_indices(codes_r[valid], n_groups) if ridx.size \
        else [_EMPTY_IDX] * n_groups
    left_takes: List[np.ndarray] = []
    right_takes: List[np.ndarray] = []
    for g in range(n_groups):
        li = lgroups[g]
        ri = ridx[rgroups[g]] if ridx.size else _EMPTY_IDX
        if ri.size == 0:
            if how == "left":
                left_takes.append(li)
                right_takes.append(np.full(li.size, -1, dtype=np.int64))
            continue
        left_takes.append(np.repeat(li, ri.size))
        right_takes.append(np.tile(ri, li.size))
    if not left_takes:
        return []
    lt = np.concatenate(left_takes)
    rt = np.concatenate(right_takes)
    cols = {c: left_cat.cols[c][lt] for c in lschema}
    has_null = bool((rt < 0).any())
    for c in right_extra:
        cols[c] = _gather_right(right_cat.cols[c], rt, has_null)
    return [ColumnBatch(list(lschema) + list(right_extra), cols,
                        int(lt.size))]


def _join_batches(plan: Join, left_b, right_b, ctx, n_partitions: int):
    """Lower a (possibly skew-annotated) Join over batch datasets."""
    from ..dataflow.plan import CoGroupedDataset
    on = tuple(plan.on)
    lschema = tuple(plan.left.schema)
    rschema = tuple(plan.right.schema)
    right_extra = tuple(c for c in rschema if c not in plan.on)
    how = plan.how
    part = join_partitioner(plan, n_partitions)
    lblocks = left_b.flat_map(
        lambda b, _on=on, _p=part: _key_blocks(b, _on, _p))
    rblocks = right_b.flat_map(
        lambda b, _on=on, _p=part: _key_blocks(b, _on, _p))
    grouped = CoGroupedDataset(ctx, [lblocks, rblocks],
                               DirectPartitioner(part.n_partitions))

    def emit(kv, _ls=lschema, _rs=rschema, _on=on, _ex=right_extra,
             _how=how):
        _p, (lbs, rbs) = kv
        return _join_reduce(lbs, rbs, _ls, _rs, _on, _ex, _how)
    return grouped.flat_map(emit)


def _broadcast_join_batches(plan: BroadcastJoin, left_b, right_rows_ds,
                            ctx):
    """Lower a BroadcastJoin: vectorized probe of a broadcast build side."""
    on = tuple(plan.on)
    lschema = tuple(plan.left.schema)
    right_extra = tuple(c for c in plan.right.schema if c not in plan.on)
    how = plan.how
    # build side at plan time, from *this* engine's compiled right child
    # (its row order matches the row engine's, so the table — insertion
    # order included — is identical across engines)
    rows = ctx.local_executor.collect(right_rows_ds)
    idx_map: Dict[tuple, List[int]] = {}
    for j, r in enumerate(rows):
        idx_map.setdefault(tuple(r[c] for c in on), []).append(j)
    table = ({k: np.asarray(v, dtype=np.int64)
              for k, v in idx_map.items()},
             {c: make_array([r[c] for r in rows]) for c in right_extra})
    bc = ctx.broadcast(table)
    null_one = np.array([-1], dtype=np.int64)

    def probe(b, _bc=bc, _on=on, _ls=lschema, _ex=right_extra, _how=how):
        lookup, store = _bc.value
        out_schema = list(_ls) + list(_ex)
        if b.n == 0:
            cols = {c: b.cols[c] for c in _ls}
            cols.update({c: make_array([]) for c in _ex})
            return ColumnBatch(out_schema, cols, 0)
        codes, uniq_keys = factorize(b, _on)
        group_idx = []
        for k in uniq_keys:
            m = lookup.get(k)
            if m is None:
                m = null_one if _how == "left" else _EMPTY_IDX
            group_idx.append(m)
        counts = np.fromiter((g.size for g in group_idx),
                             dtype=np.int64, count=len(group_idx))
        lt = np.repeat(np.arange(b.n), counts[codes])
        rt_parts = [group_idx[c] for c in codes.tolist()
                    if group_idx[c].size]
        rt = np.concatenate(rt_parts) if rt_parts else _EMPTY_IDX
        cols = {c: b.cols[c][lt] for c in _ls}
        has_null = bool(rt.size) and bool((rt < 0).any())
        for c in _ex:
            cols[c] = _gather_right(store[c], rt, has_null)
        return ColumnBatch(out_schema, cols, int(lt.size))
    return left_b.map(probe)


# -- logical-plan lowering ---------------------------------------------------


def _scan_batches(plan: Scan, ctx, n_partitions: int):
    """Source batches, chunked exactly like ``ctx.parallelize`` chunks rows
    (so partition boundaries match the row path record for record)."""
    cols_ = list(plan.columns)
    rows = plan.rows
    n = min(n_partitions, max(1, len(rows))) if rows else 1
    base, extra = divmod(len(rows), n)
    parts: List[List[ColumnBatch]] = []
    start = 0
    for i in range(n):
        size = base + (1 if i < extra else 0)
        chunk = rows[start:start + size]
        start += size
        parts.append([ColumnBatch.from_rows(chunk, cols_)])
    return ctx.from_partitions(parts)


def _rows_ds(batch_ds):
    return batch_ds.flat_map(lambda b: b.to_rows())


def _batch_ds(row_ds, schema: Sequence[str]):
    s = tuple(schema)
    return row_ds.map_partitions(
        lambda it, _s=s: [ColumnBatch.from_rows(list(it), _s)])


def _lower(plan: LogicalPlan, ctx, n_partitions: int):
    """Recursive lowering; returns ``(dataset, is_batch)``."""
    if isinstance(plan, Scan):
        return _scan_batches(plan, ctx, n_partitions), True

    if isinstance(plan, Project):
        child, is_batch = _lower(plan.child, ctx, n_partitions)
        if not is_batch:
            child = _batch_ds(child, plan.child.schema)
        exprs = tuple(plan.exprs)
        return child.map(
            lambda b, _e=exprs: project_batch(b, _e)), True

    if isinstance(plan, Filter):
        child, is_batch = _lower(plan.child, ctx, n_partitions)
        if not is_batch:
            child = _batch_ds(child, plan.child.schema)
        pred = plan.predicate
        return child.map(
            lambda b, _p=pred: filter_batch(b, _p)), True

    if isinstance(plan, GroupAgg):
        child, is_batch = _lower(plan.child, ctx, n_partitions)
        if not is_batch:
            child = _batch_ds(child, plan.child.schema)
        keys, aggs = tuple(plan.keys), tuple(plan.aggs)
        kv = child.flat_map(
            lambda b, _k=keys, _a=aggs: agg_partial(b, _k, _a))

        def merge_states(s1, s2, _a=aggs):
            return tuple(a.merge_states(x, y)
                         for a, x, y in zip(_a, s1, s2))

        def to_row(pair, _k=keys, _a=aggs):
            key, states = pair
            row = dict(zip(_k, key))
            for a, s in zip(_a, states):
                row[a.out] = a.finish(s)
            return row
        # partials are already combined per partition; the shuffle only
        # merges partition partials — the same reduce-side fold (and the
        # same key first-arrival order) as the interpreted path
        out = kv.combine_by_key(lambda s: s, merge_states, merge_states,
                                n_partitions)
        return out.map(to_row), False

    if isinstance(plan, Join):
        left_ds, lb = _lower(plan.left, ctx, n_partitions)
        right_ds, rb = _lower(plan.right, ctx, n_partitions)
        left_b = left_ds if lb else _batch_ds(left_ds, plan.left.schema)
        right_b = right_ds if rb else _batch_ds(right_ds, plan.right.schema)
        return _join_batches(plan, left_b, right_b, ctx, n_partitions), True

    if isinstance(plan, BroadcastJoin):
        left_ds, lb = _lower(plan.left, ctx, n_partitions)
        right_ds, rb = _lower(plan.right, ctx, n_partitions)
        left_b = left_ds if lb else _batch_ds(left_ds, plan.left.schema)
        right_rows = _rows_ds(right_ds) if rb else right_ds
        return _broadcast_join_batches(plan, left_b, right_rows, ctx), True

    # order_by / top-k / limit / distinct: per-operator fallback to the
    # row interpreter — children are converted to rows at the seam
    from .frame import _lower_row
    reg = get_registry()
    if reg is not None:
        reg.counter("sql.columnar_row_fallbacks").inc()
    children = []
    for c in plan.children:
        ds, is_batch = _lower(c, ctx, n_partitions)
        children.append(_rows_ds(ds) if is_batch else ds)
    return _lower_row(plan, children, ctx, n_partitions), False


def compile_columnar(plan: LogicalPlan, ctx, n_partitions: int):
    """Compile a logical plan through the columnar engine.

    Returns a Dataset of dict rows — the same output contract as the row
    compiler in :mod:`repro.sql.frame`.
    """
    ds, is_batch = _lower(plan, ctx, n_partitions)
    return _rows_ds(ds) if is_batch else ds
