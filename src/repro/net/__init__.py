"""Network substrate: topologies, routing, max-min fair flow simulation."""

from .collectives import (
    CollectiveResult,
    naive_allreduce,
    ring_allreduce,
    ring_allreduce_model,
    tree_allreduce,
    tree_allreduce_model,
)
from .flows import FlowSpec, FlowTable, allocate_rates
from .netsim import NetworkSim, TransferStats
from .topology import (
    Link,
    Topology,
    dumbbell,
    fat_tree,
    leaf_spine,
    star,
    torus_2d,
)

__all__ = [
    "Link", "Topology", "star", "leaf_spine", "fat_tree", "torus_2d",
    "dumbbell", "FlowSpec", "FlowTable", "allocate_rates", "NetworkSim",
    "TransferStats",
    "CollectiveResult", "ring_allreduce", "tree_allreduce",
    "naive_allreduce", "ring_allreduce_model", "tree_allreduce_model",
]
