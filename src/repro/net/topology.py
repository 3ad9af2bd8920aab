"""Datacenter network topologies.

A :class:`Topology` is an undirected multigraph of named nodes joined by
capacity/latency links.  Hosts are the nodes that endpoints (cluster nodes,
VMs) attach to; switches only forward.  Builders for the classic datacenter
fabrics are provided: :func:`star`, :func:`leaf_spine`, :func:`fat_tree`,
:func:`torus_2d`, and :func:`dumbbell`.

Routing is shortest-path with deterministic ECMP: when several next hops
tie, the choice is a stable hash of the flow id, so multipath load spreading
is reproducible run-to-run.  Each destination's next hops are worked out
once, from its BFS distances, and kept until a link is added; a path walk
then only hashes at the hops where several next hops tie.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, FrozenSet, Iterable, List, Tuple

from ..common.errors import RoutingError
from ..common.units import Gbit_per_s, us

__all__ = [
    "Link", "Topology",
    "star", "leaf_spine", "fat_tree", "torus_2d", "dumbbell",
]

LinkKey = FrozenSet[str]
#: node -> its (next node, link) choices on shortest paths to one destination
NextHops = Dict[str, List[Tuple[str, "Link"]]]


def _lk(u: str, v: str) -> LinkKey:
    return frozenset((u, v))


@dataclass
class Link:
    """An undirected link with a shared capacity (bytes/s) and latency (s).

    Capacity is shared by traffic in both directions — a deliberate
    simplification (full-duplex would double capacities uniformly and not
    change any comparative result shape).
    """

    u: str
    v: str
    capacity: float
    latency: float = us(5)

    def __post_init__(self) -> None:
        if self.capacity <= 0:
            raise ValueError("link capacity must be positive")
        if self.latency < 0:
            raise ValueError("link latency must be nonnegative")

    @cached_property
    def key(self) -> LinkKey:
        """Canonical dictionary key for this link (built on first use)."""
        return _lk(self.u, self.v)


class Topology:
    """An undirected network graph with hosts, switches, and links."""

    def __init__(self, name: str = "custom") -> None:
        self.name = name
        self.hosts: List[str] = []
        self.switches: List[str] = []
        self.links: Dict[LinkKey, Link] = {}
        self._adj: Dict[str, List[str]] = {}
        self._hop_cache: Dict[str, NextHops] = {}

    # -- construction -------------------------------------------------------

    def add_host(self, name: str) -> None:
        """Add an endpoint node."""
        self._add_node(name)
        self.hosts.append(name)

    def add_switch(self, name: str) -> None:
        """Add a forwarding-only node."""
        self._add_node(name)
        self.switches.append(name)

    def _add_node(self, name: str) -> None:
        if name in self._adj:
            raise ValueError(f"duplicate node {name!r}")
        self._adj[name] = []

    def add_link(self, u: str, v: str, capacity: float,
                 latency: float = us(5)) -> Link:
        """Join two existing nodes with a link."""
        if u not in self._adj or v not in self._adj:
            raise ValueError("both endpoints must be added first")
        if u == v:
            raise ValueError("self-links are not allowed")
        key = _lk(u, v)
        if key in self.links:
            raise ValueError(f"duplicate link {u}-{v}")
        link = Link(u, v, capacity, latency)
        self.links[key] = link
        self._adj[u].append(v)
        self._adj[v].append(u)
        self._hop_cache.clear()
        return link

    # -- queries -------------------------------------------------------------

    @property
    def nodes(self) -> List[str]:
        """All node names (hosts then switches, insertion order)."""
        return list(self._adj)

    def neighbors(self, node: str) -> List[str]:
        """Adjacent nodes of ``node``."""
        return list(self._adj[node])

    def link(self, u: str, v: str) -> Link:
        """The link joining ``u`` and ``v``."""
        return self.links[_lk(u, v)]

    def _dist_from(self, target: str) -> Dict[str, int]:
        """Hop distance of every node *to* ``target`` (BFS)."""
        dist = {target: 0}
        frontier = [target]
        while frontier:
            nxt: List[str] = []
            for node in frontier:
                for nb in self._adj[node]:
                    if nb not in dist:
                        dist[nb] = dist[node] + 1
                        nxt.append(nb)
            frontier = nxt
        return dist

    def _next_hops(self, target: str) -> NextHops:
        """For every node that reaches ``target``, its neighbours one hop
        closer to it, in adjacency order, with the joining links (cached)."""
        hops = self._hop_cache.get(target)
        if hops is None:
            dist = self._dist_from(target)
            hops = {
                node: [(nb, self.links[_lk(node, nb)]) for nb in self._adj[node]
                       if dist.get(nb) == d - 1]
                for node, d in dist.items() if d}
            self._hop_cache[target] = hops
        return hops

    def path(self, src: str, dst: str, flow_id: int = 0) -> List[Link]:
        """A shortest path from ``src`` to ``dst`` as a list of links.

        Among equal-cost next hops the choice is a stable hash of
        ``(flow_id, current node)`` — deterministic ECMP.
        Returns ``[]`` when ``src == dst``.
        """
        if src == dst:
            return []
        hops = self._next_hops(dst)
        if src not in hops:
            raise RoutingError(f"no route from {src} to {dst}")
        path: List[Link] = []
        cur = src
        while cur != dst:
            choices = hops[cur]
            n = len(choices)
            cur, link = choices[_stable_choice(flow_id, cur, n) if n > 1 else 0]
            path.append(link)
        return path

    def path_latency(self, path: Iterable[Link]) -> float:
        """Sum of link latencies along ``path``."""
        return sum(l.latency for l in path)

    def hop_count(self, src: str, dst: str) -> int:
        """Number of links on a shortest src→dst path."""
        return len(self.path(src, dst))

    def __repr__(self) -> str:  # pragma: no cover
        return (f"<Topology {self.name}: {len(self.hosts)} hosts, "
                f"{len(self.switches)} switches, {len(self.links)} links>")


def _stable_choice(flow_id: int, node: str, n: int) -> int:
    """Deterministic index in [0, n) from (flow id, node)."""
    digest = hashlib.blake2b(
        f"{flow_id}:{node}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "little") % n


# -- builders ----------------------------------------------------------------

def star(n_hosts: int, host_bw: float = Gbit_per_s(10),
         latency: float = us(5)) -> Topology:
    """All hosts hang off one core switch (the classic oversubscribed LAN).

    Host uplinks have ``host_bw``; the core is only a hub, so cross-traffic
    contends on the destination/source uplinks.
    """
    topo = Topology("star")
    topo.add_switch("core")
    for i in range(n_hosts):
        h = f"h{i}"
        topo.add_host(h)
        topo.add_link(h, "core", host_bw, latency)
    return topo


def dumbbell(n_left: int, n_right: int, host_bw: float = Gbit_per_s(10),
             bottleneck_bw: float = Gbit_per_s(10),
             latency: float = us(5)) -> Topology:
    """Two access switches joined by one (typically narrow) trunk link.

    The canonical topology for studying fair sharing of a single bottleneck.
    """
    topo = Topology("dumbbell")
    topo.add_switch("sw_l")
    topo.add_switch("sw_r")
    topo.add_link("sw_l", "sw_r", bottleneck_bw, latency)
    for i in range(n_left):
        h = f"l{i}"
        topo.add_host(h)
        topo.add_link(h, "sw_l", host_bw, latency)
    for i in range(n_right):
        h = f"r{i}"
        topo.add_host(h)
        topo.add_link(h, "sw_r", host_bw, latency)
    return topo


def leaf_spine(n_leaf: int, n_spine: int, hosts_per_leaf: int,
               host_bw: float = Gbit_per_s(10),
               uplink_bw: float = Gbit_per_s(40),
               latency: float = us(5)) -> Topology:
    """Two-tier Clos: every leaf connects to every spine.

    Oversubscription ratio = (hosts_per_leaf*host_bw) / (n_spine*uplink_bw).
    """
    topo = Topology("leaf_spine")
    for s in range(n_spine):
        topo.add_switch(f"spine{s}")
    for l in range(n_leaf):
        leaf = f"leaf{l}"
        topo.add_switch(leaf)
        for s in range(n_spine):
            topo.add_link(leaf, f"spine{s}", uplink_bw, latency)
        for h in range(hosts_per_leaf):
            host = f"h{l}_{h}"
            topo.add_host(host)
            topo.add_link(host, leaf, host_bw, latency)
    return topo


def fat_tree(k: int, link_bw: float = Gbit_per_s(10),
             latency: float = us(5)) -> Topology:
    """A k-ary fat-tree (Al-Fares et al.): k pods, k^3/4 hosts, full bisection.

    ``k`` must be even.  All links have equal capacity; rearrangeably
    non-blocking under ECMP.
    """
    if k < 2 or k % 2:
        raise ValueError("fat-tree k must be even and >= 2")
    topo = Topology(f"fat_tree_k{k}")
    half = k // 2
    # core switches: (k/2)^2, indexed (i, j)
    for i in range(half):
        for j in range(half):
            topo.add_switch(f"core{i}_{j}")
    for pod in range(k):
        for a in range(half):
            agg = f"agg{pod}_{a}"
            topo.add_switch(agg)
            # aggregation a connects to core row a
            for j in range(half):
                topo.add_link(agg, f"core{a}_{j}", link_bw, latency)
        for e in range(half):
            edge = f"edge{pod}_{e}"
            topo.add_switch(edge)
            for a in range(half):
                topo.add_link(edge, f"agg{pod}_{a}", link_bw, latency)
            for h in range(half):
                host = f"h{pod}_{e}_{h}"
                topo.add_host(host)
                topo.add_link(host, edge, link_bw, latency)
    return topo


def torus_2d(rows: int, cols: int, link_bw: float = Gbit_per_s(10),
             latency: float = us(5)) -> Topology:
    """A 2-D torus of hosts (HPC-style direct network, wraparound links)."""
    if rows < 2 or cols < 2:
        raise ValueError("torus needs at least 2x2")
    topo = Topology(f"torus_{rows}x{cols}")
    for r in range(rows):
        for c in range(cols):
            topo.add_host(f"t{r}_{c}")
    for r in range(rows):
        for c in range(cols):
            here = f"t{r}_{c}"
            right = f"t{r}_{(c + 1) % cols}"
            down = f"t{(r + 1) % rows}_{c}"
            if _lk(here, right) not in topo.links:
                topo.add_link(here, right, link_bw, latency)
            if _lk(here, down) not in topo.links:
                topo.add_link(here, down, link_bw, latency)
    return topo
