"""Test-only references: two earlier versions of the progressive-filling
allocator, each kept verbatim (renamed) so that a comparison is against
the exact float operations the optimized allocator must match.

* :func:`reference_allocate_rates` is the allocator before per-link
  weight totals were cached (plain ``sum`` re-added every round);
  ``test_flows_differential.py`` and ``test_flow_table.py`` check
  against it, exactly for integer weights and within 1e-12 otherwise.
* :class:`CachedFlowTable` and :func:`cached_allocate_rates` are the
  persistent table and allocator before single-weight link totals were
  counted and the filling rounds fused their link passes.  Its totals
  are ``math.fsum`` sums, exactly rounded, so ``test_flows_exact.py``
  requires every rate to be equal to it, float for float, whatever the
  weights.
"""

from __future__ import annotations

import math
from typing import (Dict, Hashable, Iterable, Iterator, Mapping, Sequence,
                    Set, Union)

from repro.net.flows import FlowSpec

LinkKey = Hashable
_INF = float("inf")


def reference_allocate_rates(
    flows: Sequence[FlowSpec],
    capacities: Mapping[LinkKey, float],
) -> Dict[Hashable, float]:
    """Max-min fair rates for ``flows`` subject to link ``capacities``.

    Flows with an empty link set (src == dst transfers) get ``limit`` if
    finite, else ``inf`` — the caller treats those as local copies.

    Guarantees (property-tested):

    * feasibility — per-link sums never exceed capacity;
    * saturation — every flow is either at its ``limit`` or crosses at
      least one saturated link;
    * max-min optimality — no flow's rate can rise without lowering that
      of a flow with an equal-or-smaller rate.
    """
    rates: Dict[Hashable, float] = {}
    active: Set[int] = set()
    flows_on_link: Dict[LinkKey, Set[int]] = {}
    for idx, f in enumerate(flows):
        if f.weight <= 0:
            raise ValueError(f"flow {f.flow_id!r} has nonpositive weight")
        if not f.links:
            rates[f.flow_id] = f.limit
            continue
        active.add(idx)
        for lk in f.links:
            if lk not in capacities:
                raise KeyError(f"flow {f.flow_id!r} crosses unknown link {set(lk)}")
            flows_on_link.setdefault(lk, set()).add(idx)

    remaining = {lk: float(capacities[lk]) for lk in flows_on_link}
    level: Dict[int, float] = {i: 0.0 for i in active}

    while active:
        # Tightest link bounds the per-unit-weight growth of active flows.
        grow = float("inf")
        for lk, members in flows_on_link.items():
            total_w = sum(flows[i].weight for i in members)
            if total_w > 0:
                grow = min(grow, remaining[lk] / total_w)
        # Limited flows may stop growing before any link saturates.
        limited = [
            i for i in active
            if (flows[i].limit - level[i]) / flows[i].weight <= grow + 1e-15
        ]
        if limited:
            grow = max(0.0, min((flows[i].limit - level[i]) / flows[i].weight
                                for i in limited))

        if grow > 0:
            for i in active:
                level[i] += grow * flows[i].weight
            for lk, members in flows_on_link.items():
                used = grow * sum(flows[i].weight for i in members)
                remaining[lk] -= used
                if remaining[lk] < 0:
                    remaining[lk] = 0.0

        frozen: Set[int] = set(limited)
        for lk, members in flows_on_link.items():
            if members and remaining[lk] <= 1e-12:
                frozen |= members
        if not frozen:
            # numerical stall: freeze everything at current level
            frozen = set(active)
        for i in frozen:
            rates[flows[i].flow_id] = min(level[i], flows[i].limit)
            for lk in flows[i].links:
                flows_on_link[lk].discard(i)
        active -= frozen
        flows_on_link = {lk: m for lk, m in flows_on_link.items() if m}

    return rates


class CachedFlowTable:
    """The live flows of a network, indexed for :func:`allocate_rates`.

    For each link it holds the set of flow ids on it, it groups flow ids
    by weight, and it keeps each finite ``limit``.  Each link's member
    weight total is cached and re-summed (``math.fsum``, exactly rounded,
    so independent of set order) only after the link gains or loses a
    flow.  Iterating a table yields its specs in the order they were
    added; ``len()`` counts them.
    """

    __slots__ = ("_specs", "_local", "_on_link", "_by_weight", "_weight",
                 "_limits", "_totals", "_dirty")

    def __init__(self, flows: Iterable[FlowSpec] = ()) -> None:
        self._specs: Dict[Hashable, FlowSpec] = {}
        # flows with no links (local copies): id -> limit
        self._local: Dict[Hashable, float] = {}
        self._on_link: Dict[LinkKey, Set[Hashable]] = {}
        self._by_weight: Dict[float, Set[Hashable]] = {}
        self._weight: Dict[Hashable, float] = {}
        self._limits: Dict[Hashable, float] = {}
        self._totals: Dict[LinkKey, float] = {}
        self._dirty: Set[LinkKey] = set()
        for spec in flows:
            self.add(spec)

    def __iter__(self) -> Iterator[FlowSpec]:
        return iter(self._specs.values())

    def __len__(self) -> int:
        return len(self._specs)

    def add(self, spec: FlowSpec) -> None:
        """Add one flow; its id must not be in the table."""
        fid = spec.flow_id
        if spec.weight <= 0:
            raise ValueError(f"flow {fid!r} has nonpositive weight")
        if fid in self._specs:
            raise ValueError(f"flow {fid!r} is already in the table")
        self._specs[fid] = spec
        if not spec.links:
            self._local[fid] = spec.limit
            return
        self._weight[fid] = spec.weight
        self._by_weight.setdefault(spec.weight, set()).add(fid)
        if spec.limit != _INF:
            self._limits[fid] = spec.limit
        for lk in spec.links:
            self._on_link.setdefault(lk, set()).add(fid)
        self._dirty.update(spec.links)

    def remove(self, flow_id: Hashable) -> None:
        """Remove the flow ``flow_id``."""
        spec = self._specs.pop(flow_id)
        if not spec.links:
            del self._local[flow_id]
            return
        del self._weight[flow_id]
        peers = self._by_weight[spec.weight]
        peers.discard(flow_id)
        if not peers:
            del self._by_weight[spec.weight]
        self._limits.pop(flow_id, None)
        for lk in set(spec.links):
            members = self._on_link[lk]
            members.discard(flow_id)
            if not members:
                del self._on_link[lk]
        self._dirty.update(spec.links)

    def _link_totals(self) -> Dict[LinkKey, float]:
        """Member weight total of every link that carries a flow."""
        if self._dirty:
            totals, on_link = self._totals, self._on_link
            weight_of = self._weight.__getitem__
            for lk in self._dirty:
                members = on_link.get(lk)
                if members:
                    totals[lk] = math.fsum(map(weight_of, members))
                else:
                    totals.pop(lk, None)
            self._dirty.clear()
        return self._totals


def cached_allocate_rates(
    flows: Union[CachedFlowTable, Sequence[FlowSpec]],
    capacities: Mapping[LinkKey, float],
) -> Dict[Hashable, float]:
    """Max-min fair rates for ``flows`` subject to link ``capacities``.

    ``flows`` is a :class:`FlowTable` or a sequence of :class:`FlowSpec`
    (put into a fresh table first); the table's flows are left as they are.
    Flows with an empty link set (src == dst transfers) get ``limit`` if
    finite, else ``inf`` — the caller treats those as local copies.

    Guarantees (property-tested):

    * feasibility — per-link sums never exceed capacity;
    * saturation — every flow is either at its ``limit`` or crosses at
      least one saturated link;
    * max-min optimality — no flow's rate can rise without lowering that
      of a flow with an equal-or-smaller rate.

    Every active flow of one weight ``w`` starts at 0.0 and grows by the
    same ``grow * w`` each round, so one level per weight class is the
    exact level of each of its flows.  Freezing and handing out rates
    are set operations over flow ids; a link's weight total is re-summed
    with ``math.fsum`` only when the link loses members.
    """
    table = (flows if isinstance(flows, CachedFlowTable)
             else CachedFlowTable(flows))
    rates: Dict[Hashable, float] = dict(table._local)
    for lk in table._on_link:
        if lk not in capacities:
            fid = next(s.flow_id for s in table if lk in s.links)
            raise KeyError(f"flow {fid!r} crosses unknown link {lk!r}")

    weight_of = table._weight.__getitem__
    members = {lk: set(m) for lk, m in table._on_link.items()}
    total_w = dict(table._link_totals())
    remaining = {lk: float(capacities[lk]) for lk in members}
    classes = {w: set(fids) for w, fids in table._by_weight.items()}
    level = dict.fromkeys(classes, 0.0)
    capped = dict(table._limits)

    while classes:
        # Tightest link bounds the per-unit-weight growth of active flows.
        grow = _INF
        for lk, tw in total_w.items():
            if tw > 0:
                grow = min(grow, remaining[lk] / tw)
        # Rate-capped flows may stop growing before any link saturates.
        limited = [
            fid for fid, lim in capped.items()
            if (lim - level[weight_of(fid)]) / weight_of(fid) <= grow + 1e-15
        ]
        if limited:
            grow = max(0.0, min((capped[fid] - level[weight_of(fid)])
                                / weight_of(fid) for fid in limited))

        if grow > 0:
            for w in level:
                level[w] += grow * w
            for lk, tw in total_w.items():
                remaining[lk] -= grow * tw
                if remaining[lk] < 0:
                    remaining[lk] = 0.0

        frozen: Set[Hashable] = set(limited)
        for lk, m in members.items():
            if remaining[lk] <= 1e-12:
                frozen |= m
        if not frozen:
            # numerical stall: freeze everything at current level
            frozen = frozen.union(*classes.values())
        for w in list(classes):
            fids = classes[w]
            hit = fids & frozen
            if hit:
                rates.update(dict.fromkeys(hit, level[w]))
                fids -= hit
                if not fids:
                    del classes[w], level[w]
        if capped:
            for fid in frozen.intersection(capped):
                rates[fid] = min(rates[fid], capped.pop(fid))
        shrunk = [lk for lk, m in members.items() if not m.isdisjoint(frozen)]
        for lk in shrunk:
            m = members[lk]
            m -= frozen
            if m:
                total_w[lk] = math.fsum(map(weight_of, m))
            else:
                del members[lk], total_w[lk]

    return rates
