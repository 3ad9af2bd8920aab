"""Differential tests for the per-destination next-hop tables.

:meth:`Topology.path` walks a next-hop table that is built once per
destination and dropped when a link is added.  It must pick, hop for
hop, the links of the plain BFS walk kept below as a test-only oracle:
at every hop, the neighbours one hop closer in adjacency order, one of
them chosen by a blake2b hash of ``(flow id, node)``.
"""

import hashlib

import pytest

from repro.common.errors import RoutingError
from repro.net import Topology, dumbbell, fat_tree, leaf_spine, star, torus_2d


def bfs_walk_path(topo, src, dst, flow_id=0):
    """Test-only oracle: a fresh BFS from ``dst``, then a walk that lists
    the equal-cost next hops at every node and hashes among them."""
    if src == dst:
        return []
    dist, frontier = {dst: 0}, [dst]
    while frontier:
        nxt = []
        for node in frontier:
            for nb in topo.neighbors(node):
                if nb not in dist:
                    dist[nb] = dist[node] + 1
                    nxt.append(nb)
        frontier = nxt
    if src not in dist:
        raise RoutingError(f"no route from {src} to {dst}")
    path, cur = [], src
    while cur != dst:
        candidates = [nb for nb in topo.neighbors(cur)
                      if dist.get(nb, 1 << 30) == dist[cur] - 1]
        if len(candidates) == 1:
            pick = candidates[0]
        else:
            digest = hashlib.blake2b(f"{flow_id}:{cur}".encode(),
                                     digest_size=8).digest()
            pick = candidates[int.from_bytes(digest, "little")
                              % len(candidates)]
        path.append(topo.link(cur, pick))
        cur = pick
    return path


TOPOLOGIES = {
    "star": lambda: star(6),
    "leaf_spine": lambda: leaf_spine(2, 4, 4),
    "fat_tree": lambda: fat_tree(4),
    "torus_2d": lambda: torus_2d(3, 4),
    "dumbbell": lambda: dumbbell(3, 4),
}


@pytest.mark.parametrize("name", sorted(TOPOLOGIES))
def test_path_equals_bfs_walk_for_all_pairs_and_flows(name):
    topo = TOPOLOGIES[name]()
    multipath_pairs = 0
    for src in topo.hosts:
        for dst in topo.hosts:
            routes = set()
            for fid in range(64):
                got = tuple(map(id, topo.path(src, dst, flow_id=fid)))
                want = tuple(map(id, bfs_walk_path(topo, src, dst, fid)))
                assert got == want, (src, dst, fid)
                routes.add(got)
            multipath_pairs += len(routes) > 1
    # the fabrics with equal-cost paths must actually exercise the hash
    assert (multipath_pairs > 0) == (name in ("leaf_spine", "fat_tree",
                                              "torus_2d"))


def test_add_link_after_a_query_drops_the_tables():
    topo = Topology()
    for h in ("a", "b", "c", "d"):
        topo.add_host(h)
    topo.add_link("a", "b", 1.0)
    topo.add_link("b", "c", 1.0)
    topo.add_link("c", "d", 1.0)
    assert [l.key for l in topo.path("a", "d")] == \
        [frozenset("ab"), frozenset("bc"), frozenset("cd")]
    shortcut = topo.add_link("a", "d", 1.0)
    assert topo.path("a", "d") == [shortcut]
    assert topo.path("b", "d") == bfs_walk_path(topo, "b", "d")
    # a second equal-cost route to c appears: a-b-c and a-d-c
    choices = {tuple(l.key for l in topo.path("a", "c", fid))
               for fid in range(32)}
    assert len(choices) == 2
    for fid in range(32):
        assert topo.path("a", "c", fid) == bfs_walk_path(topo, "a", "c", fid)


def test_unreachable_pairs_raise_routing_error():
    topo = Topology()
    for h in ("a", "b", "c"):
        topo.add_host(h)
    topo.add_link("a", "b", 1.0)
    for src, dst in (("a", "c"), ("c", "a"), ("b", "c")):
        with pytest.raises(RoutingError):
            topo.path(src, dst)
        with pytest.raises(RoutingError):
            bfs_walk_path(topo, src, dst)
    # joining c afterwards makes it reachable
    topo.add_link("b", "c", 1.0)
    assert topo.path("a", "c") == bfs_walk_path(topo, "a", "c")
