"""Rule-based logical optimizer: predicate pushdown + column pruning.

The two workhorse relational optimizations (ablation A5 measures their
effect on shuffle volume):

* **predicate pushdown** — filters migrate below projections (when their
  columns survive) and into the matching side of a join, shrinking data
  *before* the expensive shuffle;
* **column pruning** — scans are narrowed to exactly the columns any
  ancestor ever reads, so unused attributes never leave the source.

Rules run to a fixpoint; each rewrite preserves semantics (tests compare
optimized vs unoptimized results row-for-row on randomized queries).
"""

from __future__ import annotations

from typing import FrozenSet, List, Optional, Set

from .expr import Column, Expr, Literal, _Aliased
from .logical import (
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

__all__ = ["optimize", "push_filters", "prune_columns", "merge_projects"]


def optimize(plan: LogicalPlan) -> LogicalPlan:
    """Apply all rules to fixpoint (pushdown + merging, then pruning)."""
    prev_desc = None
    while prev_desc != plan.describe():
        prev_desc = plan.describe()
        plan = push_filters(plan)
        plan = merge_projects(plan)
    plan = prune_columns(plan)
    return plan


# -- predicate pushdown -------------------------------------------------------


def _rewrite_through_project(pred: Expr, project: Project) -> Optional[Expr]:
    """Pred rewritten in terms of the project's *input* columns, or None.

    Safe when every referenced output column is a direct (possibly
    aliased) column reference — then referencing the underlying input
    column is equivalent.
    """
    mapping = {}
    for e in project.exprs:
        inner = e
        while hasattr(inner, "_inner"):
            inner = inner._inner
        if isinstance(inner, Column):
            mapping[e.name] = inner.name
        else:
            mapping[e.name] = None
    needed = pred.references()
    if any(mapping.get(c) is None for c in needed):
        return None
    if all(mapping[c] == c for c in needed):
        return pred          # names unchanged: reuse as-is
    return _remap(pred, {c: mapping[c] for c in needed})


def _remap(pred: Expr, name_map) -> Expr:
    """Deep-copy ``pred`` rewriting Column names."""
    from .expr import Column as Col, Literal, _Aliased, _BinOp, _UnaryOp
    if isinstance(pred, Col):
        return Col(name_map.get(pred.name, pred.name))
    if isinstance(pred, Literal):
        return pred
    if isinstance(pred, _BinOp):
        return _BinOp(_remap(pred._l, name_map), _remap(pred._r, name_map),
                      pred._op, pred._symbol)
    if isinstance(pred, _UnaryOp):
        return _UnaryOp(_remap(pred._inner, name_map), pred._op,
                        pred._symbol, udf=pred._udf)
    if isinstance(pred, _Aliased):
        return _Aliased(_remap(pred._inner, name_map), pred._name)
    return pred


def _split_conjuncts(pred: Expr) -> List[Expr]:
    """Top-level AND conjuncts of ``pred``, left to right."""
    from .expr import _BinOp
    if isinstance(pred, _BinOp) and pred._symbol == "AND":
        return _split_conjuncts(pred._l) + _split_conjuncts(pred._r)
    return [pred]


def _conjoin(conjuncts: List[Expr]) -> Expr:
    """Re-AND a conjunct list (left-to-right, preserving eval order)."""
    out = conjuncts[0]
    for c in conjuncts[1:]:
        out = out & c
    return out


def push_filters(plan: LogicalPlan) -> LogicalPlan:
    """One bottom-up pass of filter pushdown."""
    # recurse first
    if isinstance(plan, Scan):
        return plan
    plan.children = [push_filters(c) for c in plan.children]

    if not isinstance(plan, Filter):
        return plan
    child = plan.child
    pred = plan.predicate

    if isinstance(child, Filter):
        # try to sink the outer predicate below the inner filter (they
        # commute); keep the original order when it cannot move — blindly
        # swapping here would oscillate forever on two unpushable filters
        attempt = Filter(child.child, pred)
        pushed = push_filters(attempt)
        if pushed is attempt and pushed.child is child.child:
            return plan
        child.children = [pushed]
        return child

    if isinstance(child, Project):
        rewritten = _rewrite_through_project(pred, child)
        if rewritten is not None:
            child.children = [push_filters(Filter(child.child, rewritten))]
            return child

    if isinstance(child, Join):
        left_cols = set(child.left.schema)
        right_cols = set(child.right.schema)
        # split top-level conjuncts so a mixed predicate like
        # (l.x > 1) & (r.y < 2) & (l.x < r.y) pushes its one-sided parts;
        # any conjunct referencing BOTH sides must stay above the join
        # (pushing it to either side would evaluate it against columns
        # that do not exist there / before the match is formed), as must
        # right-side conjuncts of a LEFT join (they would drop
        # null-extended rows)
        keep: List[Expr] = []
        pushed = False
        for conjunct in _split_conjuncts(pred):
            refs = conjunct.references()
            if refs <= left_cols:
                child.children[0] = push_filters(Filter(child.left,
                                                        conjunct))
                pushed = True
            elif refs <= right_cols and child.how == "inner":
                child.children[1] = push_filters(Filter(child.right,
                                                        conjunct))
                pushed = True
            else:
                keep.append(conjunct)
        if pushed:
            return Filter(child, _conjoin(keep)) if keep else child

    if isinstance(child, (OrderBy, Distinct)):
        # filters commute with sorting and dedup
        grandchild = child.child
        child.children = [push_filters(Filter(grandchild, pred))]
        return child

    return plan


# -- projection merging --------------------------------------------------------


def _substitute(e: Expr, mapping) -> Expr:
    """``e`` with Column refs replaced by the mapped inner expressions."""
    from .expr import Column as Col, Literal, _Aliased, _BinOp, _UnaryOp
    if isinstance(e, Col):
        repl = mapping.get(e.name)
        return e if repl is None else repl
    if isinstance(e, Literal):
        return e
    if isinstance(e, _BinOp):
        return _BinOp(_substitute(e._l, mapping), _substitute(e._r, mapping),
                      e._op, e._symbol)
    if isinstance(e, _UnaryOp):
        return _UnaryOp(_substitute(e._inner, mapping), e._op, e._symbol,
                        udf=e._udf)
    if isinstance(e, _Aliased):
        return _Aliased(_substitute(e._inner, mapping), e._name)
    return e


def merge_projects(plan: LogicalPlan) -> LogicalPlan:
    """Collapse Project-over-Project pairs into one projection.

    ``with_column`` chains stack one Project per call; merging them saves
    an operator (and, under columnar execution, one batch
    materialization) per level.  Conservative side condition: an inner
    expression that is not a bare column/literal must be referenced at
    most once by the outer expressions — otherwise merging would
    duplicate its evaluation per row.
    """
    if isinstance(plan, Scan):
        return plan
    plan.children = [merge_projects(c) for c in plan.children]
    if not (isinstance(plan, Project) and isinstance(plan.child, Project)):
        return plan
    inner = plan.child
    inner_map = {e.name: e for e in inner.exprs}
    ref_counts: dict = {}
    for e in plan.exprs:
        for c in e.references():
            ref_counts[c] = ref_counts.get(c, 0) + 1
    for name, count in ref_counts.items():
        mapped = inner_map.get(name)
        if mapped is None:
            return plan                    # outer reads a column inner drops
        stripped = mapped
        while isinstance(stripped, _Aliased):
            stripped = stripped._inner
        if not isinstance(stripped, (Column, Literal)) and count > 1:
            return plan                    # would duplicate real work
    merged = []
    for e in plan.exprs:
        new = _substitute(e, inner_map)
        if new.name != e.name:
            new = new.alias(e.name)
        merged.append(new)
    return merge_projects(Project(inner.child, merged))


# -- column pruning ------------------------------------------------------------


def prune_columns(plan: LogicalPlan,
                  required: Optional[FrozenSet[str]] = None) -> LogicalPlan:
    """Narrow every Scan to the columns actually consumed above it."""
    if required is None:
        required = frozenset(plan.schema)

    if isinstance(plan, Scan):
        keep = [c for c in plan.full_schema if c in required]
        if not keep:                 # always keep at least one column
            keep = plan.full_schema[:1]
        plan.columns = keep
        return plan

    if isinstance(plan, Project):
        # drop projected expressions nobody above ever reads
        kept = [e for e in plan.exprs if e.name in required]
        if kept:
            plan.exprs = kept
        needed: Set[str] = set()
        for e in plan.exprs:
            needed |= e.references()
        plan.children = [prune_columns(plan.child, frozenset(needed))]
        return plan

    if isinstance(plan, Filter):
        needed = set(required) | set(plan.predicate.references())
        plan.children = [prune_columns(plan.child, frozenset(needed))]
        return plan

    if isinstance(plan, GroupAgg):
        needed = set(plan.keys)
        for a in plan.aggs:
            needed |= a.references()
        plan.children = [prune_columns(plan.child, frozenset(needed))]
        return plan

    if isinstance(plan, Join):
        right_extra = [c for c in plan.right.schema if c not in plan.on]
        left_req = (set(required) & set(plan.left.schema)) | set(plan.on)
        right_req = (set(required) & set(right_extra)) | set(plan.on)
        plan.children = [
            prune_columns(plan.left, frozenset(left_req)),
            prune_columns(plan.right, frozenset(right_req)),
        ]
        return plan

    if isinstance(plan, OrderBy):
        needed = set(required) | {plan.key}
        plan.children = [prune_columns(plan.child, frozenset(needed))]
        return plan

    # Limit / Distinct: pass through untouched requirements
    plan.children = [prune_columns(c, required) for c in plan.children]
    return plan
