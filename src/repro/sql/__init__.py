"""Structured (DataFrame/SQL-ish) layer over the dataflow engine."""

from .adaptive import (
    AdaptiveConfig,
    AdaptiveReport,
    BroadcastJoin,
    TopK,
)
from .columnar import ColumnBatch
from .expr import Column, Expr, Literal, col, lit
from .frame import DataFrame, GroupedFrame, avg_, count_, max_, min_, sum_
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
from .optimizer import merge_projects, optimize, prune_columns, push_filters

__all__ = [
    "col", "lit", "Expr", "Column", "Literal",
    "DataFrame", "GroupedFrame", "sum_", "count_", "avg_", "min_", "max_",
    "LogicalPlan", "Scan", "Project", "Filter", "GroupAgg", "Join",
    "OrderBy", "Limit", "Distinct", "AggSpec",
    "optimize", "push_filters", "prune_columns", "merge_projects",
    "ColumnBatch",
    "AdaptiveConfig", "AdaptiveReport", "BroadcastJoin", "TopK",
]
