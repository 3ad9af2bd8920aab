"""Deadlines and retry policies with budgets, backoff, and seeded jitter.

Everything here is driven by *sim time* passed in explicitly — the kernel
never reads a wall clock — so the same seeds always produce the same
retry schedules.  A :class:`RetryPolicy` is an immutable description;
per-job mutable state (attempt history, remaining budget, jitter RNG)
lives in the :class:`RetrySession` it mints.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from ..common.errors import DeadlineExceededError, RetryBudgetExhaustedError
from ..obs.metrics import get_registry
from ..obs.trace import get_tracer

__all__ = ["Deadline", "Attempt", "RetryPolicy", "RetrySession"]


@dataclass(frozen=True)
class Deadline:
    """An absolute sim-time expiry for an operation or a whole job."""

    expires_at: float

    @classmethod
    def after(cls, now: float, timeout: float) -> "Deadline":
        return cls(expires_at=now + timeout)

    def remaining(self, now: float) -> float:
        return max(0.0, self.expires_at - now)

    def expired(self, now: float) -> bool:
        return now > self.expires_at

    def check(self, now: float, op: Optional[str] = None) -> None:
        """Raise :class:`DeadlineExceededError` if ``now`` is past expiry."""
        if self.expired(now):
            raise DeadlineExceededError(
                deadline=self.expires_at, now=now, op=op)


@dataclass(frozen=True)
class Attempt:
    """One failed attempt, as recorded in a session's history."""

    op: str
    time: float
    error: str
    delay: float


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with decorrelated jitter and a retry budget.

    ``max_attempts`` bounds failures *per operation* (a task, a repair);
    ``budget`` bounds total failures *per session* (a job) across all
    operations — ``None`` means unlimited.  With ``base_delay == 0`` the
    policy degrades to immediate retries and consumes no randomness; the
    engine and DFS defaults are such policies.
    """

    max_attempts: int = 4
    budget: Optional[int] = None
    base_delay: float = 0.0
    multiplier: float = 2.0
    max_delay: float = 30.0
    jitter: str = "decorrelated"  # "decorrelated" | "none"
    seed: int = 0

    def session(self, key: str = "", job: Optional[str] = None,
                stage: Optional[object] = None) -> "RetrySession":
        """Mint independent mutable retry state for one job/repair."""
        return RetrySession(policy=self, key=key, job=job, stage=stage)


@dataclass
class RetrySession:
    """Mutable per-job state for a :class:`RetryPolicy`.

    Records every failure, computes the backoff delay for the next
    attempt, and raises :class:`RetryBudgetExhaustedError` (with the full
    attempt history attached) the moment either the per-op attempt bound
    or the session-wide budget is exhausted.
    """

    policy: RetryPolicy
    key: str = ""
    job: Optional[str] = None
    stage: Optional[object] = None
    history: List[Attempt] = field(default_factory=list)
    _op_failures: Dict[str, int] = field(default_factory=dict)
    _prev_delay: Dict[str, float] = field(default_factory=dict)
    _rng: Optional[np.random.Generator] = field(default=None, repr=False)

    @property
    def budget_left(self) -> Optional[int]:
        if self.policy.budget is None:
            return None
        return self.policy.budget - len(self.history)

    def attempts_for(self, op: str) -> int:
        return self._op_failures.get(op, 0)

    def _jitter_rng(self) -> np.random.Generator:
        # Lazily seeded from (policy.seed, crc32(key)) so distinct jobs
        # draw independent-but-reproducible jitter streams.
        if self._rng is None:
            salt = zlib.crc32(self.key.encode("utf-8")) & 0xFFFFFFFF
            self._rng = np.random.default_rng([self.policy.seed, salt])
        return self._rng

    def _backoff(self, op: str, failures: int) -> float:
        p = self.policy
        if p.base_delay <= 0.0:
            return 0.0
        if p.jitter == "decorrelated":
            # AWS-style decorrelated jitter: sleep in
            # [base, prev * 3], capped.  Consumes one uniform draw.
            prev = self._prev_delay.get(op, p.base_delay)
            hi = max(p.base_delay, prev * 3.0)
            delay = float(self._jitter_rng().uniform(p.base_delay, hi))
        else:
            delay = p.base_delay * (p.multiplier ** (failures - 1))
        delay = min(p.max_delay, delay)
        self._prev_delay[op] = delay
        return delay

    def record_failure(self, op: str, error: str, now: float) -> float:
        """Record a failed attempt; return the backoff before retrying.

        Raises :class:`RetryBudgetExhaustedError` if ``op`` has now
        failed ``max_attempts`` times, or the session budget is spent.
        """
        failures = self._op_failures.get(op, 0) + 1
        self._op_failures[op] = failures
        exhausted = failures >= self.policy.max_attempts
        budget = self.budget_left  # before appending this failure
        if budget is not None and budget <= 0:
            exhausted = True
        delay = 0.0 if exhausted else self._backoff(op, failures)
        self.history.append(Attempt(op=op, time=now, error=str(error),
                                    delay=delay))
        reg = get_registry()
        if reg is not None:
            reg.counter("resilience.retries").inc()
        tr = get_tracer()
        if tr is not None:
            tr.instant("resilience.retry", now, cat="resilience",
                       op=op, failures=failures, delay=delay,
                       error=str(error)[:120])
        if exhausted:
            if reg is not None:
                reg.counter("resilience.budget_exhausted").inc()
            raise RetryBudgetExhaustedError(
                op=op, job=self.job, stage=self.stage,
                attempts=self.history, budget=self.policy.budget)
        return delay

    def record_success(self, op: str, now: float) -> None:
        """Reset the per-op failure count after a successful attempt."""
        self._op_failures.pop(op, None)
        self._prev_delay.pop(op, None)
