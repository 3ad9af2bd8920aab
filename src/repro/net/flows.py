"""Global max-min fair rate allocation for flows over shared links.

Implements *progressive filling*: raise every flow's rate in lock-step
until some link saturates; freeze the flows crossing it; repeat.  The
result is the unique global max-min fair allocation (the fluid-model
idealization of per-flow fair queueing / long-lived TCP).

:class:`FlowTable` holds the live flows indexed for the solver, so a
caller that adds and removes flows over time (``NetworkSim``) keeps one
table instead of rebuilding the index on every solve.  A solve's work
is per link and per filling round, not per flow.
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
    by weight, and it keeps each finite ``limit``.  A link's member
    weight total is ``len(members) * w`` while every flow has the one
    weight ``w``, else ``math.fsum`` of the weights.  Both are exactly
    rounded, so a total does not depend on set order or on how the table
    got there.  Iterating a table yields its specs in the order they
    were added; ``len()`` counts them.
    """

    __slots__ = ("_specs", "_local", "_on_link", "_by_weight", "_weight",
                 "_limits")

    def __init__(self, flows: Iterable[FlowSpec] = ()) -> None:
        self._specs: Dict[Hashable, FlowSpec] = {}
        # flows with no links (local copies): id -> limit
        self._local: Dict[Hashable, float] = {}
        self._on_link: Dict[LinkKey, Set[Hashable]] = {}
        self._by_weight: Dict[float, Set[Hashable]] = {}
        self._weight: Dict[Hashable, float] = {}
        self._limits: Dict[Hashable, float] = {}
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

    def _weight_total(self, members: Set[Hashable]) -> float:
        """Exactly rounded weight total of ``members``: a count times the
        one weight all flows share (a correctly rounded product, equal to
        ``math.fsum`` of that many copies), else ``math.fsum``."""
        if len(self._by_weight) == 1:
            return len(members) * next(iter(self._by_weight))
        return math.fsum(map(self._weight.__getitem__, members))


def allocate_rates(
    flows: Union[FlowTable, Sequence[FlowSpec]],
    capacities: Mapping[LinkKey, float],
) -> Dict[Hashable, float]:
    """Max-min fair rates for ``flows`` subject to link ``capacities``.

    ``flows`` is a :class:`FlowTable` or a sequence of :class:`FlowSpec`
    (put into a fresh table first); the table's flows are left as they are.
    Flows with an empty link set (src == dst transfers) get ``limit`` if
    finite, else ``inf`` — the caller treats those as local copies.
    The returned dict maps every flow id to its rate; the order of its
    keys is not part of the contract.

    Guarantees (property-tested):

    * feasibility — per-link sums never exceed capacity;
    * saturation — every flow is either at its ``limit`` or crosses at
      least one saturated link;
    * max-min optimality — no flow's rate can rise without lowering that
      of a flow with an equal-or-smaller rate.

    Every active flow of one weight ``w`` starts at 0.0 and grows by the
    same ``grow * w`` each round, so one level per weight class is the
    exact level of each of its flows.  Each round makes one pass over
    the links that both charges the growth and finds the saturated
    links; freezing and handing out rates are set operations over flow
    ids.  A link's weight total (:meth:`FlowTable._weight_total`) is
    worked out once per solve and again only when the link loses members.
    """
    table = flows if isinstance(flows, FlowTable) else FlowTable(flows)
    rates: Dict[Hashable, float] = dict(table._local)
    on_link, total_of = table._on_link, table._weight_total
    # per link: [remaining capacity, weight total, active member ids]
    try:
        links = [[float(capacities[lk]), total_of(members), members]
                 for lk, members in on_link.items()]
    except KeyError:
        lk = next(lk for lk in on_link if lk not in capacities)
        fid = next(s.flow_id for s in table if lk in s.links)
        raise KeyError(f"flow {fid!r} crosses unknown link {lk!r}") from None

    weight_of = table._weight.__getitem__
    classes = {w: set(fids) for w, fids in table._by_weight.items()}
    level = dict.fromkeys(classes, 0.0)
    capped = dict(table._limits)

    while classes:
        # Tightest link bounds the per-unit-weight growth of active flows.
        grow = _INF
        for remaining, tw, _ in links:
            bound = remaining / tw
            if bound < grow:
                grow = bound
        frozen: Set[Hashable] = set()
        if capped:
            # Rate-capped flows may stop growing before any link saturates.
            limited = [
                fid for fid, lim in capped.items()
                if (lim - level[weight_of(fid)]) / weight_of(fid)
                <= grow + 1e-15
            ]
            if limited:
                grow = max(0.0, min((capped[fid] - level[weight_of(fid)])
                                    / weight_of(fid) for fid in limited))
                frozen.update(limited)

        if grow > 0:
            for w in level:
                level[w] += grow * w
            # a saturated link loses all its members this round, so its
            # remaining capacity is never read again (no clamp at 0 needed)
            for link in links:
                link[0] = remaining = link[0] - grow * link[1]
                if remaining <= 1e-12:
                    frozen |= link[2]
        else:
            for remaining, _, members in links:
                if remaining <= 1e-12:
                    frozen |= members
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

        emptied = False
        for link in links:
            members = link[2]
            if members.isdisjoint(frozen):
                continue
            link[2] = members = members - frozen
            if members:
                link[1] = total_of(members)
            else:
                emptied = True
        if emptied:
            links = [link for link in links if link[2]]

    return rates
