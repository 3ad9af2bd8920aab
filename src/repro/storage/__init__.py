"""Storage substrate: DFS, erasure coding, caches."""

from .cache import (
    CachePolicy,
    CacheStats,
    ClockCache,
    FIFOCache,
    LFUCache,
    LRUCache,
    TwoQCache,
    belady_hit_rate,
    make_policy,
    run_trace,
)
from .dfs import BlockInfo, DFSConfig, DistributedFS, FileInfo
from .integrity import ChecksumError, Seal, flip_byte, seal, verify
from .reedsolomon import RSCode

__all__ = [
    "DistributedFS", "DFSConfig", "BlockInfo", "FileInfo", "RSCode",
    "Seal", "ChecksumError", "seal", "verify", "flip_byte",
    "CachePolicy", "CacheStats", "FIFOCache", "LRUCache", "ClockCache",
    "LFUCache", "TwoQCache", "make_policy", "run_trace", "belady_hit_rate",
]
