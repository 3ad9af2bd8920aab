"""Per-tenant accounting and SLO reporting for the serving gateway.

:class:`TenantStats` is the gateway's single source of truth for one
tenant: every request transitions through exactly one of
``rejected | completed | failed`` (or is still ``inflight`` when the run
is cut short), and :meth:`TenantStats.conservation_ok` checks the exact
identity

    ``submitted == rejected + completed + failed + inflight``

with integer arithmetic — no tolerance.  Retries and hedges add
*attempts*, never submissions: a request bills its tenant exactly once
regardless of how many task attempts resilience spent on it.

:class:`ServeReport` aggregates tenant stats into the headline outputs
of ROADMAP item 1 — per-tenant p99 latency vs SLO, goodput per dollar,
and Jain fairness over weight-normalized goodput — plus a deterministic
:meth:`ServeReport.snapshot` dict the chaos oracle pickles for
recovery-equivalence and determinism checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from ..common.stats import Summary, jain_index

__all__ = ["TenantStats", "ServeReport"]

#: Dollars per billed node-hour.
PRICE_PER_NODE_HOUR = 1.0


@dataclass
class TenantStats:
    """Exact accounting for one tenant.  All counters are requests."""

    name: str
    weight: float = 1.0
    slo_p99: float = float("inf")
    submitted: int = 0          # offered at the gate
    rejected: int = 0           # shed by admission (never scheduled)
    completed: int = 0          # all stages finished
    failed: int = 0             # retry budget exhausted, gave up
    # attempt-level detail (diagnostics, not conservation terms)
    attempts: int = 0           # task attempts launched
    retries: int = 0            # attempts that were retries
    hedges: int = 0             # backup attempts launched
    hedge_wins: int = 0         # backups that beat the primary
    work_completed: float = 0.0     # cpu-seconds of completed requests
    goodput_work: float = 0.0       # cpu-seconds of SLO-meeting requests
    latency: Summary = field(default_factory=Summary)

    @property
    def inflight(self) -> int:
        """Requests admitted but not yet terminal."""
        return self.submitted - self.rejected - self.completed - self.failed

    def conservation_ok(self) -> bool:
        """Exact: every submitted request is in exactly one bucket."""
        return (self.inflight >= 0
                and self.submitted == (self.rejected + self.completed
                                       + self.failed + self.inflight))

    def record_completion(self, latency: float, work: float) -> None:
        self.completed += 1
        self.work_completed += work
        self.latency.add(latency)
        if latency <= self.slo_p99:
            self.goodput_work += work

    @property
    def p99(self) -> float:
        return self.latency.p99 if len(self.latency) else 0.0

    @property
    def slo_attainment(self) -> float:
        """Fraction of completed requests within the tenant's p99 SLO."""
        if not len(self.latency):
            return 1.0
        vals = self.latency.values()
        return sum(1 for v in vals if v <= self.slo_p99) / len(vals)

    def as_dict(self) -> Dict[str, object]:
        return {
            "submitted": self.submitted,
            "rejected": self.rejected,
            "completed": self.completed,
            "failed": self.failed,
            "inflight": self.inflight,
            "attempts": self.attempts,
            "retries": self.retries,
            "hedges": self.hedges,
            "hedge_wins": self.hedge_wins,
            "work_completed": round(self.work_completed, 9),
            "goodput_work": round(self.goodput_work, 9),
            "p50_latency": round(self.latency.p50, 9) if len(self.latency)
            else 0.0,
            "p99_latency": round(self.p99, 9),
            "slo_p99": self.slo_p99,
            "slo_attainment": round(self.slo_attainment, 6),
            "conservation_ok": self.conservation_ok(),
        }


@dataclass
class ServeReport:
    """Fleet-level outcome of one gateway run."""

    tenants: Dict[str, TenantStats]
    makespan: float = 0.0
    modeled_users: int = 0          # full-population sum across tenants
    sample_frac: float = 1.0
    node_seconds: float = 0.0       # billed fleet time (incl. booting)
    scale_holds: int = 0            # breaker-held autoscale decisions
    cpu_utilization: float = 0.0

    @property
    def dollars(self) -> float:
        return self.node_seconds / 3600.0 * PRICE_PER_NODE_HOUR

    @property
    def total_goodput_work(self) -> float:
        return sum(t.goodput_work for t in self.tenants.values())

    @property
    def goodput_per_dollar(self) -> float:
        """SLO-meeting cpu-seconds delivered per dollar billed."""
        d = self.dollars
        return self.total_goodput_work / d if d > 0 else 0.0

    def jain_fairness(self) -> float:
        """Jain index over weight-normalized goodput shares.

        1.0 means every tenant received goodput exactly proportional to
        its fair-share weight; it degrades toward ``1/n`` as service
        skews.  Tenants that submitted nothing are excluded — an idle
        tenant is not being treated unfairly.
        """
        shares = [t.goodput_work / t.weight
                  for t in self.tenants.values() if t.submitted > 0]
        return jain_index(shares)

    def jain_latency(self) -> float:
        """Jain index over inverse p99 latencies (isolation proxy)."""
        inv = [1.0 / t.p99 for t in self.tenants.values()
               if len(t.latency) and t.p99 > 0]
        return jain_index(inv)

    def conservation_ok(self) -> bool:
        return all(t.conservation_ok() for t in self.tenants.values())

    def worst_p99(self) -> float:
        return max((t.p99 for t in self.tenants.values()), default=0.0)

    def snapshot(self) -> Dict[str, object]:
        """Deterministic dict of everything observable — oracle food.

        Includes per-request latency vectors, so two runs with byte-equal
        snapshots completed the *same* requests at the *same* times.
        """
        return {
            "makespan": round(self.makespan, 9),
            "node_seconds": round(self.node_seconds, 9),
            "scale_holds": self.scale_holds,
            "tenants": {
                name: {
                    **t.as_dict(),
                    "latencies": [round(v, 9) for v in t.latency.values()],
                }
                for name, t in sorted(self.tenants.items())
            },
        }

    def summary(self) -> Dict[str, object]:
        """Headline numbers (the bench/CI payload)."""
        return {
            "tenants": {n: t.as_dict() for n, t in sorted(self.tenants.items())},
            "makespan": round(self.makespan, 6),
            "modeled_users": self.modeled_users,
            "sample_frac": self.sample_frac,
            "dollars": round(self.dollars, 9),
            "goodput_per_dollar": round(self.goodput_per_dollar, 6),
            "jain_fairness": round(self.jain_fairness(), 6),
            "jain_latency": round(self.jain_latency(), 6),
            "worst_p99": round(self.worst_p99(), 6),
            "scale_holds": self.scale_holds,
            "cpu_utilization": round(self.cpu_utilization, 6),
            "conservation_ok": self.conservation_ok(),
        }
