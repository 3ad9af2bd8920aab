"""Test-only reference: the progressive-filling allocator as it was
before per-link weight totals were cached.

``test_flows_differential.py`` checks :func:`repro.net.flows.allocate_rates`
against this copy.  It is kept verbatim (renamed) so the comparison is
against the exact float operations the optimized allocator must match.
"""

from __future__ import annotations

from typing import Dict, Hashable, Mapping, Sequence, Set

from repro.net.flows import FlowSpec

LinkKey = Hashable


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
