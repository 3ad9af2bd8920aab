"""Shared foundation: errors, units, RNG plumbing, stats, data structures."""

from .errors import (
    BlockNotFoundError,
    CapacityError,
    CloudError,
    ConfigError,
    DataflowError,
    InsufficientReplicasError,
    MigrationError,
    NetworkError,
    PlacementError,
    PlanError,
    ReproError,
    RoutingError,
    SchedulingError,
    SimulationError,
    StorageError,
    StreamingError,
    TaskFailedError,
)
from .pqueue import IndexedHeap
from .rng import RandomState, ensure_rng, spawn, zipf_pmf, zipf_sample
from .stats import Summary, TimeWeighted, jain_index, percentile
from .units import (
    GB,
    GiB,
    KB,
    KiB,
    MB,
    MiB,
    TB,
    TiB,
    Gbit_per_s,
    Kbit_per_s,
    Mbit_per_s,
    fmt_bytes,
    fmt_rate,
    fmt_time,
    hours,
    minutes,
    ms,
    us,
)

__all__ = [
    # errors
    "ReproError", "ConfigError", "SimulationError", "SchedulingError",
    "StorageError", "BlockNotFoundError", "InsufficientReplicasError",
    "CapacityError", "DataflowError", "PlanError", "TaskFailedError",
    "NetworkError", "RoutingError", "CloudError", "PlacementError",
    "MigrationError", "StreamingError",
    # rng
    "RandomState", "ensure_rng", "spawn", "zipf_pmf", "zipf_sample",
    # stats
    "Summary", "TimeWeighted", "jain_index", "percentile",
    # structures
    "IndexedHeap",
    # units
    "KB", "MB", "GB", "TB", "KiB", "MiB", "GiB", "TiB",
    "Kbit_per_s", "Mbit_per_s", "Gbit_per_s",
    "ms", "us", "minutes", "hours",
    "fmt_bytes", "fmt_rate", "fmt_time",
]
