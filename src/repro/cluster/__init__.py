"""Cluster substrate: machines, racks, fluid resources."""

from .cluster import Cluster, make_cluster
from .fluid import FluidResource
from .node import Node, NodeSpec

__all__ = [
    "Cluster", "make_cluster", "FluidResource", "Node", "NodeSpec",
]
