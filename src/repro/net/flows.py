"""Global max-min fair rate allocation for flows over shared links.

Implements *progressive filling*: raise every flow's rate in lock-step
until some link saturates; freeze the flows crossing it; repeat.  The
result is the unique global max-min fair allocation (the fluid-model
idealization of per-flow fair queueing / long-lived TCP).

:class:`FlowTable` holds the live flows indexed for the solver, so a
caller that adds and removes flows over time (``NetworkSim``) keeps one
table instead of rebuilding the index on every solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import (Dict, Hashable, Iterable, Iterator, Mapping, Sequence,
                    Set, Tuple, Union)

__all__ = ["FlowSpec", "FlowTable", "allocate_rates"]

_INF = float("inf")

#: Anything hashable names a link: :class:`~repro.net.netsim.NetworkSim`
#: passes interned integer ids, tests pass ``frozenset`` endpoint pairs.
LinkKey = Hashable


@dataclass(frozen=True)
class FlowSpec:
    """A flow for rate allocation: id + the set of links it crosses.

    ``limit`` optionally caps the flow's rate below the fair share (models
    an application-level throttle or endpoint speed).  ``weight`` scales
    the flow's share on every link it crosses (weighted max-min — the
    fluid idealization of WFQ/DRR service).
    """

    flow_id: Hashable
    links: Tuple[LinkKey, ...]
    limit: float = _INF
    weight: float = 1.0


class FlowTable:
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


def allocate_rates(
    flows: Union[FlowTable, Sequence[FlowSpec]],
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
    table = flows if isinstance(flows, FlowTable) else FlowTable(flows)
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
