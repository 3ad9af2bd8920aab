"""The local executor: reference, in-process evaluation of dataflow plans.

Evaluates the same plan DAG the simulated engine runs, but directly in
this process — it is both the single-node *baseline* for the scaling
experiments and the semantic oracle the distributed results are checked
against.  Shuffle volumes (records and estimated bytes, before and after
map-side combining) are recorded per shuffle id in :attr:`LocalExecutor.
shuffle_metrics` — experiment F1 reads them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Set, Tuple

from ..common.errors import PlanError
from .costmodel import SizeEstimator
from .plan import (
    Dataset,
    NarrowDependency,
    ShuffleDependency,
    TaskRuntime,
)
from .shuffleio import (
    MapTaskOutput,
    count_sink_fallback,
    open_bucket,
    run_map_task,
    seal_buckets,
)

__all__ = ["ExecutorBase", "LocalExecutor", "ShuffleMetrics"]


@dataclass
class ShuffleMetrics:
    """Volume accounting for one materialized shuffle."""

    shuffle_id: int
    records_in: int = 0          # records entering the shuffle write
    records_written: int = 0     # records after optional map-side combine
    bytes_written: float = 0.0   # estimated serialized bytes on the wire

    @property
    def combine_ratio(self) -> float:
        """records_written / records_in (1.0 when no reduction)."""
        return self.records_written / self.records_in if self.records_in else 1.0

    def add(self, out: MapTaskOutput) -> None:
        """Account one sized map output and count its sink fallback."""
        if out.fallback is not None:
            count_sink_fallback(out.fallback)
        self.records_in += out.records_in
        self.records_written += out.written
        self.bytes_written += sum(out.bucket_bytes)


class _LocalRuntime(TaskRuntime):
    def __init__(self, executor: "LocalExecutor") -> None:
        self._ex = executor

    def fetch_shuffle(self, shuffle_id: int, reduce_id: int):
        stored, seals = self._ex._shuffle_store[shuffle_id]
        return open_bucket(stored, seals, reduce_id, layer="shuffle.local",
                           path=f"s{shuffle_id}r{reduce_id}")

    def cache_get(self, dataset: Dataset, split: int):
        by_split = self._ex._cache.get(dataset.dataset_id)
        return by_split.get(split) if by_split is not None else None

    def cache_put(self, dataset: Dataset, split: int, records: List) -> None:
        self._ex._cache.setdefault(dataset.dataset_id, {})[split] = records


class ExecutorBase:
    """The action surface shared by the in-process and pool executors.

    Subclasses provide :meth:`collect_partitions`, :meth:`_partitions`
    and ``_write_shuffle(dep)``, which materializes one shuffle and
    records its :class:`ShuffleMetrics` in ``shuffle_metrics``; the
    actions here are defined in terms of them, so both backends expose
    the same semantics by construction.
    """

    shuffle_metrics: Dict[int, ShuffleMetrics]

    def collect_partitions(self, ds: Dataset) -> List[List]:
        """All partitions of ``ds`` as lists (runs the plan)."""
        raise NotImplementedError

    def _partitions(self, ds: Dataset) -> Iterator[List]:
        """The partitions of ``ds`` in order, each computed only when
        reached, so a partition :meth:`take` never reaches updates no
        accumulator."""
        raise NotImplementedError

    def collect(self, ds: Dataset) -> List:
        """All records, concatenated in partition order."""
        return [x for part in self.collect_partitions(ds) for x in part]

    def count(self, ds: Dataset) -> int:
        """Number of records."""
        return sum(len(p) for p in self.collect_partitions(ds))

    def take(self, ds: Dataset, n: int) -> List:
        """First ``n`` records, scanning partitions lazily in order."""
        if n <= 0:
            return []
        out: List = []
        for part in self._partitions(ds):
            for x in part:
                out.append(x)
                if len(out) >= n:
                    return out
        return out

    def reduce(self, ds: Dataset, f: Callable[[Any, Any], Any]) -> Any:
        """Fold every record with ``f``; raises on an empty dataset."""
        acc = None
        seen = False
        for part in self.collect_partitions(ds):
            for x in part:
                acc = x if not seen else f(acc, x)
                seen = True
        if not seen:
            raise PlanError("reduce() on empty dataset")
        return acc

    def _materialize_shuffles(self, ds: Dataset,
                              visiting: Optional[Set[int]] = None) -> None:
        """Depth-first: materialize every shuffle below ``ds`` once."""
        if visiting is None:
            visiting = set()
        if ds.dataset_id in visiting:
            return
        visiting.add(ds.dataset_id)
        for dep in ds.deps:
            self._materialize_shuffles(dep.parent, visiting)
            if isinstance(dep, ShuffleDependency) and \
                    dep.shuffle_id not in self.shuffle_metrics:
                self._write_shuffle(dep)


class LocalExecutor(ExecutorBase):
    """Evaluates plans in-process, materializing shuffles bottom-up."""

    def __init__(self, ctx) -> None:
        self.ctx = ctx
        # shuffle id -> seal_buckets(...) of its reduce buckets
        self._shuffle_store: Dict[int, Tuple[List, Optional[List]]] = {}
        # two-level index (dataset_id -> split -> records) so uncaching a
        # dataset is O(its partitions), not a scan of every cached entry
        self._cache: Dict[int, Dict[int, List]] = {}
        self.shuffle_metrics: Dict[int, ShuffleMetrics] = {}
        self._size_est = SizeEstimator(ctx.cost_model)
        self._runtime = _LocalRuntime(self)

    # -- public actions --------------------------------------------------

    def collect_partitions(self, ds: Dataset) -> List[List]:
        """All partitions of ``ds`` as lists (runs the plan)."""
        return list(self._partitions(ds))

    def _partitions(self, ds: Dataset) -> Iterator[List]:
        self._materialize_shuffles(ds)
        return (self._materialize(ds, i) for i in range(ds.n_partitions))

    def count(self, ds: Dataset) -> int:
        """Number of records (keeps only one partition in memory)."""
        return sum(len(p) for p in self._partitions(ds))

    def _materialize(self, ds: Dataset, split: int) -> List:
        """Compute one partition with accumulator exactly-once bookkeeping."""
        return self._as_task(lambda: list(ds.iterate(split, self._runtime)))

    def _as_task(self, compute: Callable[[], Any]) -> Any:
        """Run ``compute`` as one task: accumulator updates made inside
        it are stashed and applied once, after it returns."""
        accs = self.ctx.accumulators
        for a in accs:
            a._begin_task()
        try:
            out = compute()
        finally:
            stashes = [(a, a._end_task()) for a in accs]
        # the local executor never fails a task: every stash is a winner
        for a, stash in stashes:
            a._apply(stash)
        return out

    # -- shuffle materialization -----------------------------------------

    def _write_shuffle(self, dep: ShuffleDependency) -> None:
        sid = dep.shuffle_id
        buckets: List[List] = [[] for _ in range(dep.partitioner.n_partitions)]
        metrics = ShuffleMetrics(sid)
        for split in range(dep.parent.n_partitions):
            out = self._as_task(lambda: run_map_task(
                dep, split, self._runtime, self.ctx.cost_model))
            out.size(sid, self._size_est)
            metrics.add(out)
            for merged, bucket in zip(buckets, out.buckets):
                merged.extend(bucket)
        self._shuffle_store[sid] = seal_buckets(
            buckets, dep.parent.ctx.options.checksums)
        self.shuffle_metrics[sid] = metrics

    # -- maintenance --------------------------------------------------------

    def clear(self) -> None:
        """Drop all materialized shuffles, caches, and metrics."""
        self._shuffle_store.clear()
        self._cache.clear()
        self.shuffle_metrics.clear()
        self._size_est.invalidate()

    def uncache(self, ds: Dataset) -> None:
        """Evict a dataset's partitions from the in-process cache."""
        self._cache.pop(ds.dataset_id, None)
