"""Global max-min fair rate allocation for flows over shared links.

Implements *progressive filling*: raise every flow's rate in lock-step
until some link saturates; freeze the flows crossing it; repeat.  The
result is the unique global max-min fair allocation (the fluid-model
idealization of per-flow fair queueing / long-lived TCP).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, Mapping, Sequence, Set, Tuple

__all__ = ["FlowSpec", "allocate_rates"]

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


def allocate_rates(
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

    Each link's member weight total is kept across rounds and re-summed
    only when the link loses members, over the same set in the same
    order, so every float operation matches a full re-sum per round.
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
                raise KeyError(f"flow {f.flow_id!r} crosses unknown link {lk!r}")
            flows_on_link.setdefault(lk, set()).add(idx)

    weight = [f.weight for f in flows]
    remaining = {lk: float(capacities[lk]) for lk in flows_on_link}
    total_w = {lk: sum(weight[i] for i in members)
               for lk, members in flows_on_link.items()}
    level = [0.0] * len(flows)
    capped = [i for i in active if flows[i].limit != _INF]

    while active:
        # Tightest link bounds the per-unit-weight growth of active flows.
        grow = _INF
        for lk, tw in total_w.items():
            if tw > 0:
                grow = min(grow, remaining[lk] / tw)
        # Rate-capped flows may stop growing before any link saturates.
        limited = [
            i for i in capped
            if (flows[i].limit - level[i]) / weight[i] <= grow + 1e-15
        ]
        if limited:
            grow = max(0.0, min((flows[i].limit - level[i]) / weight[i]
                                for i in limited))

        if grow > 0:
            for i in active:
                level[i] += grow * weight[i]
            for lk, tw in total_w.items():
                remaining[lk] -= grow * tw
                if remaining[lk] < 0:
                    remaining[lk] = 0.0

        frozen: Set[int] = set(limited)
        for lk, members in flows_on_link.items():
            if remaining[lk] <= 1e-12:
                frozen |= members
        if not frozen:
            # numerical stall: freeze everything at current level
            frozen = set(active)
        shrunk: Set[LinkKey] = set()
        for i in frozen:
            rates[flows[i].flow_id] = min(level[i], flows[i].limit)
            for lk in flows[i].links:
                flows_on_link[lk].discard(i)
                shrunk.add(lk)
        active -= frozen
        capped = [i for i in capped if i not in frozen]
        for lk in shrunk:
            members = flows_on_link[lk]
            if members:
                total_w[lk] = sum(weight[i] for i in members)
            else:
                del flows_on_link[lk], total_w[lk]

    return rates
