"""The dataflow engine: lazy plans, local execution, simulated clusters."""

import importlib

from .context import DataflowContext, ExecOptions
from .costmodel import CostModel, SizeEstimator
from .engine import EngineConfig, JobMetrics, JobResult, SimEngine
from .local import LocalExecutor, ShuffleMetrics
from .partitioner import (
    HashPartitioner,
    Partitioner,
    RangePartitioner,
    stable_hash,
    stable_hash_many,
)
from .fusion import (
    prime_segments,
    reset_segment_cache,
    segment_cache_shapes,
)
from .local import ExecutorBase
from .plan import Aggregator, Dataset, ShuffleDependency, SourceDataset
from .shared import Accumulator, Broadcast
from .stages import (
    Stage,
    build_stages,
    fusion_groups,
    narrow_op_depth,
    topo_order,
)

__all__ = [
    "DataflowContext", "ExecOptions", "Dataset", "SourceDataset", "Aggregator",
    "ShuffleDependency", "CostModel", "SizeEstimator",
    "LocalExecutor", "ExecutorBase", "ShuffleMetrics",
    "PooledExecutor", "ProcessPoolBackend", "audit_plan",
    "SimEngine", "EngineConfig", "JobMetrics", "JobResult",
    "Partitioner", "HashPartitioner", "RangePartitioner",
    "stable_hash", "stable_hash_many",
    "Stage", "build_stages", "topo_order", "narrow_op_depth",
    "fusion_groups",
    "reset_segment_cache", "prime_segments", "segment_cache_shapes",
    "Broadcast", "Accumulator",
]


def __getattr__(name: str):
    """Import the process-pool backend on first use (PEP 562), so that a
    process without a pool loads neither ``mp`` nor multiprocessing."""
    if name in ("PooledExecutor", "ProcessPoolBackend", "audit_plan"):
        return getattr(importlib.import_module(f"{__name__}.mp"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
