"""Adaptive query execution (AQE) for the structured layer.

Logical plans are frozen before the first task runs; this module closes
the "compile vs. runtime-adapt" gap by re-planning at the logical →
physical boundary using *measured* statistics, the same plan-time seam
``sort_by`` already uses for range-boundary sampling (small eager jobs on
``ctx.local_executor``, so plan shape never depends on which execution
backend later runs it).  Three adaptations:

* **broadcast-join switch** — when the build (right) side's measured or
  statically-bounded row count is under ``AdaptiveConfig.broadcast_rows``,
  the shuffle join is replaced by a map-side :class:`BroadcastJoin`: the
  small side is collected once, shipped via ``ctx.broadcast`` (one copy
  per node on the pool backend), and probed per partition — no shuffle of
  the big side at all;
* **skew-aware re-partitioning** — the probe side's join-key distribution
  is sampled; any key whose expected reducer share exceeds
  ``skew_factor``× the balanced per-reducer load (i.e. lies beyond the
  balanced-load quantile bound) is isolated onto its own dedicated
  reduce partition via :class:`SkewPartitioner`, appended after the base
  hash range so no other key moves;
* **top-k pushdown** — ``order_by`` + ``limit`` collapses into
  :class:`TopK`: a per-partition bounded heap, funneled to a single
  merge, instead of a full range-partitioned global sort.

Decisions are applied to the *logical* plan before engine lowering, so
the row interpreter and the columnar engine execute the same adapted
plan and remain byte-identical to each other in every mode.  AQE itself
never changes the result set: adapted plans produce the same rows, and
identical output order for any order-defining query (``order_by`` ties
break on row content — see ``frame._sort_token`` — precisely so that
physical re-planning upstream cannot leak into sorted output).

AQE is off by default; a context opts in through its execution options::

    ctx = DataflowContext(options=ExecOptions(adaptive=AdaptiveConfig()))

Every applied decision is recorded in an :class:`AdaptiveReport`
(``DataFrame.last_adaptive_report`` after compilation) and counted on
the obs metrics registry when one is installed (``aqe.broadcast_joins``,
``aqe.skew_repartitions``, ``aqe.topk_pushdowns``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from ..dataflow.partitioner import HashPartitioner, Partitioner
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

__all__ = [
    "AdaptiveConfig", "AdaptiveReport", "BroadcastJoin", "TopK",
    "SkewPartitioner", "adapt", "estimate_rows",
]


# -- configuration -----------------------------------------------------------

#: Probe-side join keys sampled per skew decision.
SKEW_SAMPLE = 2048

#: At most this many hot keys get a dedicated reduce partition.
MAX_HOT_KEYS = 8


@dataclass(frozen=True)
class AdaptiveConfig:
    """Thresholds for the adaptive decisions.

    ``broadcast_rows``: broadcast the right side when its measured (or
    statically bounded) row count is <= this.  ``skew_factor``: isolate a
    join key when its expected reducer share exceeds ``skew_factor / n``
    of the rows (``skew_factor``x the balanced per-reducer load).
    """

    broadcast_rows: int = 1000
    skew_factor: float = 3.0
    skew_min_rows: int = 256
    measure: bool = True


# -- physical-choice plan nodes ----------------------------------------------


class BroadcastJoin(LogicalPlan):
    """A join whose right side is small enough to ship to every task.

    Same schema and row semantics as :class:`~repro.sql.logical.Join`,
    but lowered map-side: the right side is collected at plan time
    (local executor), built into a key -> rows table, broadcast, and
    probed per left partition.  Output order is the left side's row
    order (matches per key, in right-side arrival order).
    """

    def __init__(self, left: LogicalPlan, right: LogicalPlan,
                 on: List[str], how: str = "inner") -> None:
        self.children = [left, right]
        self.on = list(on)
        self.how = how

    @property
    def left(self) -> LogicalPlan:
        return self.children[0]

    @property
    def right(self) -> LogicalPlan:
        return self.children[1]

    @property
    def schema(self):
        right_extra = [c for c in self.right.schema if c not in self.on]
        return list(self.left.schema) + right_extra

    def _label(self):
        return f"BroadcastJoin(on={self.on}, how={self.how})"


class TopK(LogicalPlan):
    """``order_by`` + ``limit`` fused: per-partition heap, one merge."""

    def __init__(self, child: LogicalPlan, key: str, ascending: bool,
                 n: int) -> None:
        self.children = [child]
        self.key = key
        self.ascending = ascending
        self.n = n

    @property
    def child(self) -> LogicalPlan:
        return self.children[0]

    @property
    def schema(self):
        return self.child.schema

    def _label(self):
        direction = "asc" if self.ascending else "desc"
        return f"TopK({self.key} {direction}, n={self.n})"


class SkewPartitioner(Partitioner):
    """Hash partitioning with hot keys isolated on dedicated partitions.

    Keys in ``hot_keys`` map to partitions ``n_base + i`` (one each, in
    list order); every other key keeps its ``stable_hash % n_base``
    assignment, so only the isolated keys move relative to a plain
    :class:`HashPartitioner`.
    """

    def __init__(self, n_base: int, hot_keys: List[tuple]) -> None:
        super().__init__(n_base + len(hot_keys))
        self.n_base = n_base
        self.hot_keys = list(hot_keys)
        self._hot = {k: n_base + i for i, k in enumerate(self.hot_keys)}
        self._base = HashPartitioner(n_base)

    def partition(self, key: Any) -> int:
        dedicated = self._hot.get(key)
        if dedicated is not None:
            return dedicated
        return self._base.partition(key)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, SkewPartitioner)
                and self.n_base == other.n_base
                and self.hot_keys == other.hot_keys)

    def __hash__(self) -> int:  # pragma: no cover
        return hash((type(self).__name__, self.n_base, len(self.hot_keys)))


def join_partitioner(plan: Join, n_partitions: int) -> Partitioner:
    """The reduce partitioner for a (possibly skew-annotated) Join node.

    Shared by both engines so the adapted physical layout — and with it
    the reduce-side key arrival order — is identical under the row
    interpreter and the columnar kernels.
    """
    hot = getattr(plan, "skew_keys", None)
    if hot:
        return SkewPartitioner(n_partitions, hot)
    return HashPartitioner(n_partitions)


# -- statistics --------------------------------------------------------------


def estimate_rows(plan: LogicalPlan) -> Optional[int]:
    """A static upper bound on the plan's row count (None = unbounded)."""
    if isinstance(plan, Scan):
        return len(plan.rows)
    if isinstance(plan, Limit):
        child = estimate_rows(plan.child)
        return plan.n if child is None else min(plan.n, child)
    if isinstance(plan, TopK):
        child = estimate_rows(plan.child)
        return plan.n if child is None else min(plan.n, child)
    if isinstance(plan, (Project, Filter, GroupAgg, OrderBy, Distinct)):
        return estimate_rows(plan.children[0])
    if isinstance(plan, (Join, BroadcastJoin)):
        left = estimate_rows(plan.left)
        right = estimate_rows(plan.right)
        if left is None or right is None:
            return None
        # inner joins are bounded by the full cross product; left joins
        # additionally emit every unmatched left row once
        return left * max(right, 1)
    return None


def _is_narrow(plan: LogicalPlan) -> bool:
    """True when the subplan runs without any shuffle (cheap to measure)."""
    if isinstance(plan, (Scan, Project, Filter, Limit)):
        return all(_is_narrow(c) for c in plan.children)
    return False


def _measure_rows(plan: LogicalPlan, ctx, n_partitions: int) -> int:
    """Measured row count of a narrow subplan (eager local sizing job)."""
    from .frame import _compile
    return ctx.local_executor.count(_compile(plan, ctx, n_partitions))


def _sample_keys(plan: LogicalPlan, ctx, n_partitions: int,
                 on: Tuple[str, ...], est: int,
                 sample: int) -> List[tuple]:
    """A bounded sample of the subplan's join-key tuples (local job)."""
    from .frame import _compile
    ds = _compile(plan, ctx, n_partitions).map(
        lambda r, _on=on: tuple(r[c] for c in _on))
    if est > sample:
        ds = ds.sample(sample / est, seed=23)
    return ctx.local_executor.collect(ds)


# -- the adaptation pass -----------------------------------------------------


class AdaptiveReport:
    """The decisions one compilation applied, in plan order."""

    def __init__(self) -> None:
        self.decisions: List[Dict[str, Any]] = []

    def record(self, kind: str, **detail: Any) -> None:
        self.decisions.append({"kind": kind, **detail})
        from ..obs.metrics import get_registry
        reg = get_registry()
        if reg is not None:
            reg.counter(f"aqe.{kind}").inc()

    def kinds(self) -> List[str]:
        return [d["kind"] for d in self.decisions]

    def __repr__(self) -> str:  # pragma: no cover
        return f"<AdaptiveReport {self.kinds()}>"


def _decide_broadcast(plan: Join, ctx, n_partitions: int,
                      config: AdaptiveConfig,
                      report: AdaptiveReport) -> Optional[BroadcastJoin]:
    est = estimate_rows(plan.right)
    if est is not None and est <= config.broadcast_rows:
        report.record("broadcast_joins", on=list(plan.on), how=plan.how,
                      basis="estimated", right_rows=est)
        return BroadcastJoin(plan.left, plan.right, plan.on, plan.how)
    if config.measure and _is_narrow(plan.right):
        measured = _measure_rows(plan.right, ctx, n_partitions)
        if measured <= config.broadcast_rows:
            report.record("broadcast_joins", on=list(plan.on), how=plan.how,
                          basis="measured", right_rows=measured)
            return BroadcastJoin(plan.left, plan.right, plan.on, plan.how)
    return None


def _decide_skew(plan: Join, ctx, n_partitions: int,
                 config: AdaptiveConfig, report: AdaptiveReport) -> None:
    """Annotate ``plan`` with hot probe-side keys (in place)."""
    if not _is_narrow(plan.left):
        return
    est = estimate_rows(plan.left)
    if est is None or est < config.skew_min_rows:
        return
    keys = _sample_keys(plan.left, ctx, n_partitions, tuple(plan.on),
                        est, SKEW_SAMPLE)
    if not keys:
        return
    counts: Dict[tuple, int] = {}
    for k in keys:
        counts[k] = counts.get(k, 0) + 1
    # a key is hot when its expected single-key reducer load exceeds
    # skew_factor x the balanced per-reducer share (the quantile bound)
    bound = config.skew_factor * len(keys) / max(n_partitions, 1)
    hot = [k for k, c in counts.items() if c > bound]
    if not hot:
        return
    hot.sort(key=lambda k: -counts[k])
    hot = hot[:MAX_HOT_KEYS]
    plan.skew_keys = hot
    report.record("skew_repartitions", on=list(plan.on),
                  hot_keys=len(hot), sampled=len(keys),
                  bound=round(bound, 2))


def adapt(plan: LogicalPlan, ctx, n_partitions: int,
          config: AdaptiveConfig,
          report: Optional[AdaptiveReport] = None,
          ) -> Tuple[LogicalPlan, AdaptiveReport]:
    """Rewrite ``plan`` with measured-statistics physical decisions.

    Runs bottom-up; safe on a cloned plan (Join nodes are annotated in
    place, Limit/OrderBy pairs are replaced by new TopK nodes).  Returns
    the adapted plan and the decision report.
    """
    if report is None:
        report = AdaptiveReport()
    plan.children = [adapt(c, ctx, n_partitions, config, report)[0]
                     for c in plan.children]

    if isinstance(plan, Limit) and isinstance(plan.child, OrderBy):
        ob = plan.child
        report.record("topk_pushdowns", key=ob.key,
                      ascending=ob.ascending, n=plan.n)
        return TopK(ob.child, ob.key, ob.ascending, plan.n), report

    if isinstance(plan, Join):
        broadcast = _decide_broadcast(plan, ctx, n_partitions, config,
                                      report)
        if broadcast is not None:
            return broadcast, report
        _decide_skew(plan, ctx, n_partitions, config, report)

    return plan, report
