"""Deterministic, sim-time resilience kernel shared by every layer.

One policy vocabulary — deadlines, retry budgets with seeded backoff
jitter, per-target circuit breakers, hedged requests, and token-bucket
admission control — consumed by the dataflow engine, the DFS, the
micro-batch streaming engine, and the autoscaler.  All state advances on
explicit sim time, so identical seeds produce identical retry schedules,
breaker transitions, and shed counts; chaos oracles property-test that
policy-enabled runs stay byte-identical to fault-free runs until a
budget is exhausted, and then fail with one deterministic typed error.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .admission import AdmissionConfig, AdmissionController, TokenBucket
from .breaker import BreakerConfig, CircuitBreaker
from .hedge import HedgePolicy, quantile, run_hedged
from .policy import Attempt, Deadline, RetryPolicy, RetrySession

__all__ = [
    "Deadline",
    "Attempt",
    "RetryPolicy",
    "RetrySession",
    "BreakerConfig",
    "CircuitBreaker",
    "HedgePolicy",
    "quantile",
    "run_hedged",
    "AdmissionConfig",
    "AdmissionController",
    "TokenBucket",
    "ResiliencePolicies",
]


@dataclass(frozen=True)
class ResiliencePolicies:
    """Bundle of policies a consumer honours; any slot may be None.

    Consumers read only the slots they understand: the dataflow engine
    uses ``retry`` / ``hedge`` / ``deadline_timeout``, the DFS uses
    ``retry`` / ``breaker_config``, streaming uses ``admission``, and
    the autoscaler uses ``breaker_config``.  A ``None`` retry slot means
    the consumer's default :class:`RetryPolicy` (engine:
    ``DEFAULT_TASK_RETRY``, 5 attempts per task; DFS repair:
    ``RetryPolicy()``, 4 attempts); any other ``None`` slot turns that
    mechanism off.
    """

    retry: Optional[RetryPolicy] = None
    hedge: Optional[HedgePolicy] = None
    deadline_timeout: Optional[float] = None  # per-job, relative sim time
    breaker_config: Optional[BreakerConfig] = None
    admission: Optional[AdmissionConfig] = None
