"""The lazy dataflow plan: Datasets, dependencies, and transformations.

A :class:`Dataset` is an immutable, partitioned, lazily evaluated
collection (the RDD model).  Transformations build a DAG; *narrow*
dependencies (map/filter/union) pipeline within a stage, *shuffle*
dependencies (reduceByKey/join/sortBy) cut stage boundaries.  Actions are
provided on the Dataset for local execution (via the context's
:class:`~repro.dataflow.local.LocalExecutor`); the simulated distributed
engine consumes the same plan graph.

Every ``compute`` is deterministic given the plan, so lineage-based
recovery (re-running lost partitions) is sound by construction.
"""

from __future__ import annotations

import math
from typing import (
    Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple,
    TYPE_CHECKING,
)

from ..common.errors import PlanError
from ..common.rng import ensure_rng
from . import fusion
from .partitioner import HashPartitioner, Partitioner, RangePartitioner

if TYPE_CHECKING:  # pragma: no cover
    from .context import DataflowContext

__all__ = [
    "Aggregator", "Dependency", "NarrowDependency", "ShuffleDependency",
    "Dataset", "SourceDataset", "MappedDataset", "UnionDataset",
    "ShuffledDataset", "CoGroupedDataset",
]


# "key not seen yet" marker of the one-lookup ``dict.get`` folds below
_MISSING = object()


class Aggregator:
    """Combiner triple for shuffle aggregation (Spark's Aggregator)."""

    __slots__ = ("create", "merge_value", "merge_combiners")

    def __init__(self, create: Callable[[Any], Any],
                 merge_value: Callable[[Any, Any], Any],
                 merge_combiners: Callable[[Any, Any], Any]) -> None:
        self.create = create
        self.merge_value = merge_value
        self.merge_combiners = merge_combiners


class Dependency:
    """Edge in the plan DAG."""

    def __init__(self, parent: "Dataset") -> None:
        self.parent = parent


class NarrowDependency(Dependency):
    """Child partition i depends on a bounded set of parent partitions."""


class ShuffleDependency(Dependency):
    """All-to-all boundary: parent records are repartitioned by key.

    ``parent`` must produce ``(key, value)`` pairs.  ``aggregator`` enables
    combining; ``map_side_combine`` applies it before the wire (the
    combiner optimization measured in experiment F1).  ``sort_ascending``
    (not None) asks the reduce side to emit key-sorted output.
    """

    _next_shuffle_id = [0]

    def __init__(self, parent: "Dataset", partitioner: Partitioner,
                 aggregator: Optional[Aggregator] = None,
                 map_side_combine: bool = False,
                 sort_ascending: Optional[bool] = None) -> None:
        super().__init__(parent)
        if map_side_combine and aggregator is None:
            raise PlanError("map_side_combine requires an aggregator")
        self.partitioner = partitioner
        self.aggregator = aggregator
        self.map_side_combine = map_side_combine
        self.sort_ascending = sort_ascending
        # ids come from the owning context, so a fresh context numbers its
        # shuffles from 0 — a process-global counter here would make ids
        # (and anything keyed on them, like chaos injection traces) depend
        # on how many jobs ran earlier in the process
        ctx = getattr(parent, "ctx", None)
        if ctx is not None:
            self.shuffle_id = ctx._new_shuffle_id()
        else:
            self.shuffle_id = ShuffleDependency._next_shuffle_id[0]
            ShuffleDependency._next_shuffle_id[0] += 1


class TaskRuntime:
    """What a task needs from its executor while computing a partition.

    ``fetch_shuffle(shuffle_id, reduce_id)`` yields the (key, payload)
    records destined for that reduce partition.  The cache hooks let the
    executor memoize partitions of ``cached`` datasets.  The local executor
    and the simulated engine provide their own implementations.
    """

    def fetch_shuffle(self, shuffle_id: int, reduce_id: int) -> Iterable[Tuple]:
        raise NotImplementedError

    def cache_get(self, dataset: "Dataset", split: int) -> Optional[List]:
        """Cached records for (dataset, split), or None."""
        return None

    def cache_put(self, dataset: "Dataset", split: int, records: List) -> None:
        """Offer computed records of a cached dataset to the cache."""


class Dataset:
    """A partitioned, lazily computed collection; the public dataflow API."""

    def __init__(self, ctx: "DataflowContext", deps: List[Dependency],
                 n_partitions: int,
                 partitioner: Optional[Partitioner] = None) -> None:
        if n_partitions < 1:
            raise PlanError("dataset needs at least one partition")
        self.ctx = ctx
        self.deps = deps
        self.n_partitions = n_partitions
        self.partitioner = partitioner
        self.dataset_id = ctx._register(self)
        self.cached = False
        # consumer bookkeeping feeds the fusion barrier: a dataset with
        # more than one child is never fused *through* (each consumer
        # computes it independently, so inlining it into one consumer's
        # pipeline would hide it from plan-level reasoning)
        for dep in deps:
            ctx._note_child(dep.parent.dataset_id)

    # -- to be provided by subclasses ------------------------------------

    def compute(self, split: int, runtime: TaskRuntime) -> Iterator:
        """Yield the records of partition ``split``."""
        raise NotImplementedError

    def iterate(self, split: int, runtime: TaskRuntime) -> Iterator:
        """Cache-aware access to a partition — executors and parents use
        this instead of calling :meth:`compute` directly."""
        hit = runtime.cache_get(self, split)
        if hit is not None:
            return iter(hit)
        if self.cached:
            records = list(self.compute(split, runtime))
            runtime.cache_put(self, split, records)
            return iter(records)
        return self.compute(split, runtime)

    def preferred_locations(self, split: int) -> List[str]:
        """Node names where ``split`` is cheapest to compute (locality hint)."""
        for dep in self.deps:
            if isinstance(dep, NarrowDependency):
                parents = self.parent_splits(split)
                if parents:
                    parent_ds, psplit = parents[0]
                    return parent_ds.preferred_locations(psplit)
        return []

    def parent_splits(self, split: int) -> List[Tuple["Dataset", int]]:
        """(parent dataset, parent split) pairs feeding this split (narrow)."""
        out = []
        for dep in self.deps:
            if isinstance(dep, NarrowDependency):
                out.append((dep.parent, split))
        return out

    # -- transformations ---------------------------------------------------

    def map(self, f: Callable[[Any], Any]) -> "Dataset":
        """Apply ``f`` to every record."""
        return MappedDataset(self, lambda it: (f(x) for x in it),
                             op_kind="map", elem_fn=f)

    def flat_map(self, f: Callable[[Any], Iterable]) -> "Dataset":
        """Apply ``f`` and flatten the resulting iterables."""
        return MappedDataset(
            self, lambda it: (y for x in it for y in f(x)),
            op_kind="flatmap", elem_fn=f)

    def filter(self, pred: Callable[[Any], bool]) -> "Dataset":
        """Keep records where ``pred`` holds."""
        return MappedDataset(self, lambda it: (x for x in it if pred(x)),
                             op_kind="filter", elem_fn=pred)

    def map_partitions(self, f: Callable[[Iterator], Iterable]) -> "Dataset":
        """Apply ``f`` to each whole partition iterator."""
        return MappedDataset(self, lambda it: iter(f(it)))

    def key_by(self, f: Callable[[Any], Any]) -> "Dataset":
        """Turn records into ``(f(x), x)`` pairs."""
        return MappedDataset(self, lambda it: ((f(x), x) for x in it),
                             op_kind="map",
                             elem_fn=lambda x, _f=f: (_f(x), x))

    def map_values(self, f: Callable[[Any], Any]) -> "Dataset":
        """Apply ``f`` to the value of each (k, v) pair (keeps partitioning)."""
        return MappedDataset(
            self, lambda it: ((k, f(v)) for k, v in it),
            preserves_partitioning=True,
            op_kind="map", elem_fn=lambda kv, _f=f: (kv[0], _f(kv[1])))

    def flat_map_values(self, f: Callable[[Any], Iterable]) -> "Dataset":
        """flat_map over values of (k, v) pairs (keeps partitioning)."""
        return MappedDataset(
            self, lambda it: ((k, y) for k, v in it for y in f(v)),
            preserves_partitioning=True,
            op_kind="flatmap",
            elem_fn=lambda kv, _f=f: ((kv[0], y) for y in _f(kv[1])))

    def keys(self) -> "Dataset":
        """The keys of (k, v) pairs."""
        return MappedDataset(self, lambda it: (k for k, _ in it),
                             op_kind="map", elem_fn=lambda kv: kv[0])

    def values(self) -> "Dataset":
        """The values of (k, v) pairs."""
        return MappedDataset(self, lambda it: (v for _, v in it),
                             op_kind="map", elem_fn=lambda kv: kv[1])

    def glom(self) -> "Dataset":
        """Each partition as one list record."""
        return MappedDataset(self, lambda it: iter([list(it)]))

    def sample(self, fraction: float, seed: int = 0) -> "Dataset":
        """Bernoulli sample of records (deterministic per seed+partition)."""
        if not (0.0 <= fraction <= 1.0):
            raise PlanError("fraction must lie in [0, 1]")
        ds = self

        def sampler(split: int, it: Iterator) -> Iterator:
            rng = ensure_rng((seed * 1_000_003 + split) & 0x7FFFFFFF)
            return (x for x in it if rng.random() < fraction)
        # fusible=False: sampling is a fusion barrier, so the RNG stream a
        # sampled dataset observes never depends on how its consumers are
        # pipelined (conservative; the per-(seed, split) RNG would be
        # deterministic either way)
        return MappedDataset(self, sampler, with_split=True, fusible=False)

    def union(self, other: "Dataset") -> "Dataset":
        """Concatenation of two datasets (no dedup)."""
        return UnionDataset(self.ctx, [self, other])

    def distinct(self, n_partitions: Optional[int] = None) -> "Dataset":
        """Unique records (requires hashable/picklable records)."""
        return (
            self.map(lambda x: (x, None))
            .reduce_by_key(lambda a, b: a, n_partitions)
            .keys()
        )

    # -- keyed / shuffle transformations ------------------------------------

    def _default_shuffle_partitions(self, n: Optional[int]) -> int:
        if n is not None:
            if n < 1:
                raise PlanError("n_partitions must be >= 1")
            return n
        return self.n_partitions

    def combine_by_key(self, create: Callable, merge_value: Callable,
                       merge_combiners: Callable,
                       n_partitions: Optional[int] = None,
                       map_side_combine: bool = True) -> "Dataset":
        """The general combiner-based aggregation (reduce/group derive from it)."""
        n = self._default_shuffle_partitions(n_partitions)
        agg = Aggregator(create, merge_value, merge_combiners)
        part = HashPartitioner(n)
        if self.partitioner == part:
            # already partitioned correctly: aggregate within partitions
            def local_agg(it: Iterator) -> Iterator:
                acc: Dict[Any, Any] = {}
                get = acc.get
                missing = _MISSING
                for k, v in it:
                    prev = get(k, missing)
                    acc[k] = create(v) if prev is missing \
                        else merge_value(prev, v)
                return iter(acc.items())
            return MappedDataset(self, local_agg, preserves_partitioning=True)
        dep = ShuffleDependency(self, part, agg,
                                map_side_combine=map_side_combine)
        return ShuffledDataset(self.ctx, dep)

    def reduce_by_key(self, f: Callable[[Any, Any], Any],
                      n_partitions: Optional[int] = None,
                      map_side_combine: bool = True) -> "Dataset":
        """Merge values per key with ``f`` (associative & commutative)."""
        return self.combine_by_key(lambda v: v, f, f, n_partitions,
                                   map_side_combine)

    def aggregate_by_key(self, zero: Any, seq_op: Callable, comb_op: Callable,
                         n_partitions: Optional[int] = None) -> "Dataset":
        """Aggregate values per key into a different result type."""
        import copy

        def create(v):
            return seq_op(copy.deepcopy(zero), v)
        return self.combine_by_key(create, seq_op, comb_op, n_partitions)

    def group_by_key(self, n_partitions: Optional[int] = None) -> "Dataset":
        """All values per key as a list (no map-side combine — lists don't shrink)."""
        return self.combine_by_key(
            lambda v: [v],
            lambda acc, v: (acc.append(v) or acc),
            lambda a, b: (a.extend(b) or a),
            n_partitions,
            map_side_combine=False,
        )

    def group_by(self, f: Callable[[Any], Any],
                 n_partitions: Optional[int] = None) -> "Dataset":
        """Group records by ``f(record)``."""
        return self.key_by(f).group_by_key(n_partitions)

    def partition_by(self, partitioner: Partitioner) -> "Dataset":
        """Repartition (k, v) records with an explicit partitioner."""
        if self.partitioner == partitioner:
            return self
        dep = ShuffleDependency(self, partitioner)
        return ShuffledDataset(self.ctx, dep)

    def repartition(self, n_partitions: int) -> "Dataset":
        """Round-robin-ish rebalance to ``n_partitions`` (full shuffle)."""
        counter = [0]

        def add_key(split: int, it: Iterator) -> Iterator:
            i = split
            for j, x in enumerate(it):
                yield ((split * 2654435761 + j) & 0x7FFFFFFF, x)
        keyed = MappedDataset(self, add_key, with_split=True)
        dep = ShuffleDependency(keyed, HashPartitioner(n_partitions))
        return ShuffledDataset(self.ctx, dep).values()

    def sort_by(self, key_func: Callable[[Any], Any], ascending: bool = True,
                n_partitions: Optional[int] = None) -> "Dataset":
        """Globally sort records by ``key_func`` (TeraSort-style range shuffle).

        Sampling the keys requires one extra pass over this dataset (a real
        job, exactly as in Spark), performed eagerly on the local executor.
        """
        n = self._default_shuffle_partitions(n_partitions)
        sample = self.map(key_func)._local_sample_for_sort()
        part = RangePartitioner.from_sample(sample, n, ascending=ascending,
                                            seed=0)
        keyed = self.key_by(key_func)
        dep = ShuffleDependency(keyed, part, sort_ascending=ascending)
        return ShuffledDataset(self.ctx, dep).values()

    def sort_by_key(self, ascending: bool = True,
                    n_partitions: Optional[int] = None) -> "Dataset":
        """Sort (k, v) records by key."""
        n = self._default_shuffle_partitions(n_partitions)
        sample = self.keys()._local_sample_for_sort()
        part = RangePartitioner.from_sample(sample, n, ascending=ascending,
                                            seed=0)
        dep = ShuffleDependency(self, part, sort_ascending=ascending)
        return ShuffledDataset(self.ctx, dep)

    def _local_sample_for_sort(self, max_sample: int = 10_000) -> List[Any]:
        """Collect a bounded sample of this dataset's records (for boundaries)."""
        # deliberately on the local executor, not ctx.executor: this is a
        # plan-*construction* sizing job, and range boundaries must not
        # depend on which execution backend later runs the plan
        total = self.ctx.local_executor.count(self)
        if total == 0:
            return []
        fraction = min(1.0, max_sample / total)
        sampled = self.sample(fraction, seed=17) if fraction < 1.0 else self
        return self.ctx.local_executor.collect(sampled)

    def cogroup(self, other: "Dataset",
                n_partitions: Optional[int] = None) -> "Dataset":
        """Per key: (list of my values, list of other's values)."""
        n = self._default_shuffle_partitions(n_partitions)
        return CoGroupedDataset(self.ctx, [self, other], HashPartitioner(n))

    def join(self, other: "Dataset",
             n_partitions: Optional[int] = None) -> "Dataset":
        """Inner join on keys: (k, (v, w)) for every pairing."""
        return self.cogroup(other, n_partitions).flat_map_values(
            lambda vw: [(v, w) for v in vw[0] for w in vw[1]])

    def left_outer_join(self, other: "Dataset",
                        n_partitions: Optional[int] = None) -> "Dataset":
        """Left join: (k, (v, w|None))."""
        return self.cogroup(other, n_partitions).flat_map_values(
            lambda vw: [(v, w) for v in vw[0] for w in (vw[1] or [None])])

    def fold_by_key(self, zero: Any, op: Callable[[Any, Any], Any],
                    n_partitions: Optional[int] = None) -> "Dataset":
        """Fold values per key starting from (a copy of) ``zero``.

        As in Spark, the zero value is applied once per *partition* a key
        appears in (map-side combining starts each partition's fold from
        ``zero``), so non-neutral zeros may contribute multiple times.
        """
        import copy
        return self.combine_by_key(
            lambda v: op(copy.deepcopy(zero), v), op, op, n_partitions)

    def subtract_by_key(self, other: "Dataset",
                        n_partitions: Optional[int] = None) -> "Dataset":
        """(k, v) pairs whose key does not appear in ``other``."""
        return self.cogroup(other, n_partitions).flat_map_values(
            lambda vw: vw[0] if not vw[1] else [])

    def subtract(self, other: "Dataset",
                 n_partitions: Optional[int] = None) -> "Dataset":
        """Records of this dataset absent from ``other`` (duplicates kept)."""
        mine = self.map(lambda x: (x, None))
        theirs = other.map(lambda x: (x, None))
        return mine.subtract_by_key(theirs, n_partitions).keys()

    def intersection(self, other: "Dataset",
                     n_partitions: Optional[int] = None) -> "Dataset":
        """Distinct records present in both datasets."""
        a = self.map(lambda x: (x, None))
        b = other.map(lambda x: (x, None))
        return (a.cogroup(b, n_partitions)
                .filter(lambda kv: bool(kv[1][0]) and bool(kv[1][1]))
                .keys())

    def cartesian(self, other: "Dataset") -> "Dataset":
        """All (x, y) pairs — n*m partitions, no shuffle."""
        return CartesianDataset(self, other)

    def coalesce(self, n_partitions: int) -> "Dataset":
        """Merge adjacent partitions down to ``n_partitions`` (no shuffle)."""
        return CoalescedDataset(self, n_partitions)

    def zip_with_index(self) -> "Dataset":
        """Records paired with a global 0-based index.

        Needs the per-partition sizes, so (exactly as in Spark) it runs a
        small counting job eagerly at plan time on the local executor
        (plan construction stays backend-independent).
        """
        sizes = [
            len(part)
            for part in self.ctx.local_executor.collect_partitions(self)
        ]
        offsets = [0]
        for s in sizes[:-1]:
            offsets.append(offsets[-1] + s)

        def indexer(split: int, it: Iterator) -> Iterator:
            base = offsets[split]
            return ((x, base + i) for i, x in enumerate(it))
        return MappedDataset(self, indexer, with_split=True)

    def take_ordered(self, n: int, key: Optional[Callable] = None)\
            -> List[Any]:
        """The ``n`` smallest records, ascending (action)."""
        import heapq
        parts = self.ctx.executor.collect_partitions(self)
        return heapq.nsmallest(n, (x for p in parts for x in p), key=key)

    # -- persistence ---------------------------------------------------------

    def cache(self) -> "Dataset":
        """Mark this dataset's partitions for in-memory reuse across jobs."""
        self.cached = True
        return self

    # -- actions (backend-selected executor) ----------------------------------

    def collect(self) -> List[Any]:
        """All records as a list (runs the plan on ``ctx.executor``)."""
        return self.ctx.executor.collect(self)

    def count(self) -> int:
        """Number of records."""
        return self.ctx.executor.count(self)

    def take(self, n: int) -> List[Any]:
        """First ``n`` records (in partition order)."""
        return self.ctx.executor.take(self, n)

    def first(self) -> Any:
        """The first record (raises on empty dataset)."""
        got = self.take(1)
        if not got:
            raise PlanError("first() on empty dataset")
        return got[0]

    def reduce(self, f: Callable[[Any, Any], Any]) -> Any:
        """Fold all records with ``f`` (raises on empty dataset)."""
        return self.ctx.executor.reduce(self, f)

    def sum(self) -> Any:
        """Sum of records (0 for empty)."""
        parts = self.ctx.executor.collect_partitions(self)
        return sum(x for p in parts for x in p)

    def max(self) -> Any:
        """Largest record."""
        return self.reduce(lambda a, b: a if a >= b else b)

    def min(self) -> Any:
        """Smallest record."""
        return self.reduce(lambda a, b: a if a <= b else b)

    def top(self, n: int, key: Optional[Callable] = None) -> List[Any]:
        """The ``n`` largest records, descending."""
        import heapq
        parts = self.ctx.executor.collect_partitions(self)
        return heapq.nlargest(n, (x for p in parts for x in p), key=key)

    def count_by_key(self) -> Dict[Any, int]:
        """Counts per key of (k, v) records."""
        out: Dict[Any, int] = {}
        for k, _ in self.collect():
            out[k] = out.get(k, 0) + 1
        return out

    def collect_as_map(self) -> Dict[Any, Any]:
        """(k, v) records as a dict (last write wins on duplicate keys)."""
        return dict(self.collect())

    def __repr__(self) -> str:  # pragma: no cover
        return (f"<{type(self).__name__} #{self.dataset_id} "
                f"parts={self.n_partitions}>")


class SourceDataset(Dataset):
    """Materialized input partitions, with optional locality hints."""

    def __init__(self, ctx: "DataflowContext", partitions: Sequence[Sequence],
                 locations: Optional[Sequence[List[str]]] = None) -> None:
        if not partitions:
            partitions = [[]]
        if locations is not None and len(locations) != len(partitions):
            raise PlanError("locations must align with partitions")
        super().__init__(ctx, [], len(partitions))
        self._partitions = [list(p) for p in partitions]
        self._locations = [list(l) for l in locations] if locations else None

    def compute(self, split: int, runtime: TaskRuntime) -> Iterator:
        return iter(self._partitions[split])

    def preferred_locations(self, split: int) -> List[str]:
        return list(self._locations[split]) if self._locations else []

    def parent_splits(self, split: int):
        return []


class MappedDataset(Dataset):
    """A narrow, per-partition transformation of one parent.

    ``fn`` is the iterator-level transformation (the unfused reference
    semantics).  When the op is element-wise, ``op_kind`` ("map",
    "filter", "flatmap") plus ``elem_fn`` describe it structurally so
    runs of such ops fuse into one compiled loop (see
    :mod:`~repro.dataflow.fusion`); opaque iterator-level ops default to
    kind "iter"/"iter_split" and join the fused pipeline as wrappers.
    ``fusible=False`` makes this dataset a fusion barrier: consumers
    never inline it into their pipelines.
    """

    def __init__(self, parent: Dataset, fn: Callable, with_split: bool = False,
                 preserves_partitioning: bool = False,
                 op_kind: Optional[str] = None,
                 elem_fn: Optional[Callable] = None,
                 fusible: bool = True) -> None:
        part = parent.partitioner if preserves_partitioning else None
        super().__init__(parent.ctx, [NarrowDependency(parent)],
                         parent.n_partitions, part)
        self.parent = parent
        self.fn = fn
        self.with_split = with_split
        if op_kind is None:
            op_kind = "iter_split" if with_split else "iter"
        self.op_kind = op_kind
        self.elem_fn = elem_fn
        self.fusible = fusible

    def _fused_step(self) -> Tuple[str, Callable]:
        """This op as a ``(kind, fn)`` fusion step."""
        if self.elem_fn is not None and self.op_kind in fusion.ELEMENT_KINDS:
            return self.op_kind, self.elem_fn
        return ("iter_split" if self.with_split else "iter"), self.fn

    def _fused_chain(self) -> List["MappedDataset"]:
        """The run of ops ending at ``self`` that execute as one pipeline.

        Deepest op first; always contains at least ``self``.  The chain
        extends through a parent only when fusion cannot change observable
        plan semantics — it stops (a *fusion barrier*) at any parent that

        * is not a :class:`MappedDataset` (sources, unions, shuffles, ...),
        * is ``cached`` (its partitions must materialize through
          :meth:`Dataset.iterate` so cache puts/gets still happen),
        * is marked non-fusible (e.g. :meth:`Dataset.sample`), or
        * feeds more than one child dataset (diamonds compute the shared
          parent per consumer, never inside one consumer's pipeline).
        """
        chain: List[MappedDataset] = [self]
        node: MappedDataset = self
        counts = self.ctx._child_counts
        while True:
            p = node.parent
            if not isinstance(p, MappedDataset) or p.cached \
                    or not p.fusible or counts.get(p.dataset_id, 0) > 1:
                return chain[::-1]
            chain.append(p)
            node = p

    def compute(self, split: int, runtime: TaskRuntime) -> Iterator:
        if not self.ctx.options.fusion:
            parent_iter = self.parent.iterate(split, runtime)
            if self.with_split:
                return iter(self.fn(split, parent_iter))
            return iter(self.fn(parent_iter))
        chain = self._fused_chain()
        base_iter = chain[0].parent.iterate(split, runtime)
        return fusion.run_chain([ds._fused_step() for ds in chain],
                                split, base_iter)

    def fold(self, split: int, runtime: TaskRuntime,
             agg: Aggregator) -> Tuple[List[Tuple], int]:
        """Partition ``split`` folded straight into a map-side combine.

        Returns ``(items, n_folded)`` through :func:`fusion.fold_chain`.
        Only for an uncached dataset whose own op is element-wise, on a
        context with fusion on (:func:`~repro.dataflow.shuffleio.
        map_side_items` checks); an uncached dataset is never in the
        cache, so skipping :meth:`iterate` skips nothing.
        """
        chain = self._fused_chain()
        base_iter = chain[0].parent.iterate(split, runtime)
        return fusion.fold_chain([ds._fused_step() for ds in chain], split,
                                 base_iter, agg.create, agg.merge_value)


class UnionDataset(Dataset):
    """Concatenation: partitions of all parents, in order."""

    def __init__(self, ctx: "DataflowContext", parents: List[Dataset]) -> None:
        if not parents:
            raise PlanError("union of nothing")
        deps = [NarrowDependency(p) for p in parents]
        total = sum(p.n_partitions for p in parents)
        super().__init__(ctx, deps, total)
        self.parents = parents
        self._offsets = []
        acc = 0
        for p in parents:
            self._offsets.append(acc)
            acc += p.n_partitions

    def _locate(self, split: int) -> Tuple[Dataset, int]:
        for parent, off in zip(reversed(self.parents),
                               reversed(self._offsets)):
            if split >= off:
                return parent, split - off
        raise PlanError(f"split {split} out of range")

    def compute(self, split: int, runtime: TaskRuntime) -> Iterator:
        parent, psplit = self._locate(split)
        return parent.iterate(psplit, runtime)

    def parent_splits(self, split: int):
        parent, psplit = self._locate(split)
        return [(parent, psplit)]

    def preferred_locations(self, split: int) -> List[str]:
        parent, psplit = self._locate(split)
        return parent.preferred_locations(psplit)


class ShuffledDataset(Dataset):
    """The reduce side of a shuffle: merge, (optionally) aggregate or sort."""

    def __init__(self, ctx: "DataflowContext", dep: ShuffleDependency) -> None:
        super().__init__(ctx, [dep], dep.partitioner.n_partitions,
                         dep.partitioner)
        self.dep = dep

    def compute(self, split: int, runtime: TaskRuntime) -> Iterator:
        records = runtime.fetch_shuffle(self.dep.shuffle_id, split)
        agg = self.dep.aggregator
        if agg is not None:
            merged: Dict[Any, Any] = {}
            get = merged.get
            missing = _MISSING
            if self.dep.map_side_combine:
                merge_combiners = agg.merge_combiners
                for k, c in records:
                    prev = get(k, missing)
                    merged[k] = c if prev is missing \
                        else merge_combiners(prev, c)
            else:
                create, merge_value = agg.create, agg.merge_value
                for k, v in records:
                    prev = get(k, missing)
                    merged[k] = create(v) if prev is missing \
                        else merge_value(prev, v)
            items: Iterable = merged.items()
            if self.dep.sort_ascending is not None:
                items = sorted(items, key=lambda kv: kv[0],
                               reverse=not self.dep.sort_ascending)
            return iter(items)
        out = list(records)
        if self.dep.sort_ascending is not None:
            out.sort(key=lambda kv: kv[0],
                     reverse=not self.dep.sort_ascending)
        return iter(out)

    def parent_splits(self, split: int):
        return []


class CartesianDataset(Dataset):
    """All pairs of two datasets; partition (i, j) = a[i] x b[j]."""

    def __init__(self, a: Dataset, b: Dataset) -> None:
        super().__init__(a.ctx, [NarrowDependency(a), NarrowDependency(b)],
                         a.n_partitions * b.n_partitions)
        self.a = a
        self.b = b

    def _locate(self, split: int) -> Tuple[int, int]:
        return divmod(split, self.b.n_partitions)

    def compute(self, split: int, runtime: TaskRuntime) -> Iterator:
        i, j = self._locate(split)
        # materialize the *inner* (right) partition once per task — it is
        # replayed per left record — and stream the left side through the
        # cache-aware iterate path instead of listing it up front
        right = list(self.b.iterate(j, runtime))
        return ((x, y) for x in self.a.iterate(i, runtime) for y in right)

    def parent_splits(self, split: int):
        i, j = self._locate(split)
        return [(self.a, i), (self.b, j)]

    def preferred_locations(self, split: int) -> List[str]:
        i, _j = self._locate(split)
        return self.a.preferred_locations(i)


class CoalescedDataset(Dataset):
    """Adjacent parent partitions merged into fewer partitions (narrow)."""

    def __init__(self, parent: Dataset, n_partitions: int) -> None:
        if n_partitions < 1:
            raise PlanError("coalesce needs at least one partition")
        n = min(n_partitions, parent.n_partitions)
        super().__init__(parent.ctx, [NarrowDependency(parent)], n)
        self.parent = parent
        # contiguous groups, sizes differing by at most one
        base, extra = divmod(parent.n_partitions, n)
        self._groups: List[List[int]] = []
        start = 0
        for g in range(n):
            size = base + (1 if g < extra else 0)
            self._groups.append(list(range(start, start + size)))
            start += size

    def compute(self, split: int, runtime: TaskRuntime) -> Iterator:
        return (x for psplit in self._groups[split]
                for x in self.parent.iterate(psplit, runtime))

    def parent_splits(self, split: int):
        return [(self.parent, p) for p in self._groups[split]]

    def preferred_locations(self, split: int) -> List[str]:
        for psplit in self._groups[split]:
            locs = self.parent.preferred_locations(psplit)
            if locs:
                return locs
        return []


class CoGroupedDataset(Dataset):
    """Aligns several keyed datasets on one partitioner.

    Record format: ``(k, (values_from_parent_0, values_from_parent_1, ...))``.
    """

    def __init__(self, ctx: "DataflowContext", parents: List[Dataset],
                 partitioner: Partitioner) -> None:
        deps: List[Dependency] = []
        for p in parents:
            if p.partitioner == partitioner:
                deps.append(NarrowDependency(p))
            else:
                deps.append(ShuffleDependency(p, partitioner))
        super().__init__(ctx, deps, partitioner.n_partitions, partitioner)
        self.parents = parents

    def compute(self, split: int, runtime: TaskRuntime) -> Iterator:
        n = len(self.deps)
        table: Dict[Any, List[List[Any]]] = {}
        for i, dep in enumerate(self.deps):
            if isinstance(dep, ShuffleDependency):
                records = runtime.fetch_shuffle(dep.shuffle_id, split)
            else:
                records = dep.parent.iterate(split, runtime)
            for k, v in records:
                slot = table.get(k)
                if slot is None:
                    slot = [[] for _ in range(n)]
                    table[k] = slot
                slot[i].append(v)
        return ((k, tuple(slots)) for k, slots in table.items())

    def parent_splits(self, split: int):
        return [(dep.parent, split) for dep in self.deps
                if isinstance(dep, NarrowDependency)]
