"""The dataflow entry point: :class:`DataflowContext`.

Holds the dataset registry, default parallelism, cost model, and the
executors used by Dataset actions.  Mirrors the role of a SparkContext.
Actions run on the in-process :class:`~repro.dataflow.local.LocalExecutor`
by default; setting :attr:`DataflowContext.backend` to ``"pool"`` (or
exporting ``REPRO_BACKEND=pool``) routes them through the warm
multi-process :class:`~repro.dataflow.mp.ProcessPoolBackend` instead.

Execution choices — fusion, columnar SQL, shuffle checksums, adaptive
query execution — live in one frozen :class:`ExecOptions` per context
(``ctx.options``); change them by assigning a new value
(``dataclasses.replace``).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence

from ..common.errors import PlanError
from .costmodel import CostModel
from .plan import Dataset, SourceDataset
from .shared import Accumulator, Broadcast

if TYPE_CHECKING:
    from ..sql.adaptive import AdaptiveConfig

__all__ = ["DataflowContext", "ExecOptions"]

#: Execution backends a context can route its actions through.
BACKENDS = ("inprocess", "pool")


@dataclass(frozen=True)
class ExecOptions:
    """How a context executes (DESIGN.md's execution-contract table).

    ``fusion`` and ``checksums`` change neither result bytes nor
    simulated time; ``columnar`` keeps rows and their order; ``adaptive``
    keeps the rows as a multiset (ordered queries byte-equal), float
    aggregates within re-association error.

    ``fusion``: compile narrow chains into one generator
    (:mod:`~repro.dataflow.fusion`).  ``columnar``: lower DataFrame
    queries through the vectorized engine (:mod:`repro.sql.columnar`).
    ``checksums``: seal shuffle map outputs and CRC spill files; every
    fetch then unpickles fresh records.  Off, the local executor and
    ``SimEngine`` pass reducers the stored combiner objects, so a
    ``merge_combiners`` that mutates its first argument in place
    rewrites the stored shuffle and a re-run sees it.
    ``adaptive``: re-plan DataFrame queries with measured statistics
    under this :class:`~repro.sql.adaptive.AdaptiveConfig`; ``None`` is
    AQE off.  Hashable, so the pool keys worker priming on it.
    """

    fusion: bool = True
    columnar: bool = True
    checksums: bool = True
    adaptive: Optional["AdaptiveConfig"] = None


class DataflowContext:
    """Creates datasets and owns execution defaults.

    >>> ctx = DataflowContext(default_parallelism=4)
    >>> ctx.parallelize(range(10)).map(lambda x: x * x).sum()
    285
    """

    # distinguishes contexts across a process: pool workers primed by one
    # context must not serve stale plan state to the next (dataset ids
    # restart at 0 per context, so the id alone cannot disambiguate)
    _next_token = 0

    def __init__(self, default_parallelism: int = 4,
                 cost_model: Optional[CostModel] = None,
                 backend: Optional[str] = None,
                 pool_workers: Optional[int] = None,
                 options: ExecOptions = ExecOptions()) -> None:
        if default_parallelism < 1:
            raise PlanError("default_parallelism must be >= 1")
        self.default_parallelism = default_parallelism
        self.cost_model = cost_model or CostModel()
        self._datasets: Dict[int, Dataset] = {}
        self._next_id = 0
        self._next_shuffle_id = 0
        self.options = options
        #: dataset_id -> number of child datasets consuming it; fusion
        #: treats any count > 1 as a pipeline barrier
        self._child_counts: Dict[int, int] = {}
        self.broadcasts: List["Broadcast"] = []
        self.accumulators: List["Accumulator"] = []
        self.ctx_token = DataflowContext._next_token
        DataflowContext._next_token += 1
        from .local import LocalExecutor
        self.local_executor = LocalExecutor(self)
        #: worker count for an auto-created pool (None = backend default)
        self.pool_workers = pool_workers
        self._pooled_executor = None
        self._owns_backend = False
        self._backend = "inprocess"
        self.backend = backend or os.environ.get("REPRO_BACKEND",
                                                 "inprocess")

    # -- execution backend ----------------------------------------------

    @property
    def backend(self) -> str:
        """Active action backend: ``"inprocess"`` or ``"pool"``."""
        return self._backend

    @backend.setter
    def backend(self, value: str) -> None:
        if value not in BACKENDS:
            raise PlanError(
                f"unknown backend {value!r} (expected one of {BACKENDS})")
        self._backend = value

    @property
    def executor(self):
        """The executor Dataset actions dispatch to (backend-selected)."""
        if self._backend == "pool":
            return self.pooled_executor
        return self.local_executor

    @property
    def pooled_executor(self):
        """The pool-backed executor, creating a warm pool on first use."""
        if self._pooled_executor is None:
            from .mp import PooledExecutor, ProcessPoolBackend
            self._pooled_executor = PooledExecutor(
                self, ProcessPoolBackend(n_workers=self.pool_workers))
            self._owns_backend = True
        return self._pooled_executor

    def attach_pool(self, backend) -> None:
        """Serve pool actions from an existing (warm) backend.

        The backend's lifetime stays with the caller — benchmarks share
        one warm pool across the contexts of consecutive runs.
        """
        from .mp import PooledExecutor
        self.close()
        self._pooled_executor = PooledExecutor(self, backend)
        self._owns_backend = False

    def close(self) -> None:
        """Shut down a pool this context created (idempotent)."""
        if self._pooled_executor is not None and self._owns_backend:
            self._pooled_executor.backend.shutdown()
        self._pooled_executor = None
        self._owns_backend = False

    def _register(self, ds: Dataset) -> int:
        did = self._next_id
        self._next_id += 1
        self._datasets[did] = ds
        return did

    def _new_shuffle_id(self) -> int:
        sid = self._next_shuffle_id
        self._next_shuffle_id += 1
        return sid

    def _note_child(self, parent_id: int) -> None:
        self._child_counts[parent_id] = \
            self._child_counts.get(parent_id, 0) + 1

    # -- dataset creation ---------------------------------------------------

    def parallelize(self, data: Iterable, n_partitions: Optional[int] = None)\
            -> Dataset:
        """Distribute a local collection into roughly equal partitions."""
        items = list(data)
        n = n_partitions or self.default_parallelism
        if n < 1:
            raise PlanError("n_partitions must be >= 1")
        n = min(n, max(1, len(items))) if items else 1
        # contiguous equal chunks (Spark semantics: order preserved)
        parts: List[List] = []
        base, extra = divmod(len(items), n)
        start = 0
        for i in range(n):
            size = base + (1 if i < extra else 0)
            parts.append(items[start:start + size])
            start += size
        return SourceDataset(self, parts)

    def range(self, n: int, n_partitions: Optional[int] = None) -> Dataset:
        """The integers ``0..n-1`` as a dataset."""
        return self.parallelize(range(n), n_partitions)

    def from_partitions(self, partitions: Sequence[Sequence],
                        locations: Optional[Sequence[List[str]]] = None)\
            -> Dataset:
        """A dataset from explicit partitions, with optional locality hints.

        ``locations[i]`` lists the cluster nodes where partition ``i`` is
        stored (e.g. DFS block replica holders) — the simulated engine uses
        these for locality-aware task placement.
        """
        return SourceDataset(self, partitions, locations)

    def union(self, datasets: Sequence[Dataset]) -> Dataset:
        """Union of many datasets."""
        if not datasets:
            raise PlanError("union of nothing")
        out = datasets[0]
        for ds in datasets[1:]:
            out = out.union(ds)
        return out

    # -- shared variables -----------------------------------------------

    def broadcast(self, value) -> Broadcast:
        """Wrap ``value`` for one-per-node distribution.

        The simulated engine ships each broadcast to a node once (first
        use) instead of once per task; access inside closures via
        ``bc.value``.
        """
        bc = Broadcast(value)
        self.broadcasts.append(bc)
        return bc

    def accumulator(self, zero=0, op=None, name: str = "") -> Accumulator:
        """An add-only shared variable with exactly-once task semantics.

        Updates from failed attempts and speculative losers are discarded
        by the executors; only winning attempts count.
        """
        acc = Accumulator(zero, op, name)
        self.accumulators.append(acc)
        return acc
