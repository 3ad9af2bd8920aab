"""Streaming summary statistics and fairness indices.

These are the measurement primitives used by every experiment harness:
:class:`Summary` (Welford streaming moments + reservoir for quantiles),
:class:`TimeWeighted` (time-averaged utilization), and :func:`jain_index`
(fairness).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence

import numpy as np

__all__ = [
    "Summary",
    "TimeWeighted",
    "jain_index",
    "percentile",
]


class Summary:
    """Streaming mean/variance/min/max with exact quantiles.

    Uses Welford's online algorithm for numerically stable moments and keeps
    every observation (experiments here are laptop-scale) so quantiles are
    exact.  ``keep_values=False`` drops raw values to bound memory, in which
    case quantile queries raise.
    """

    def __init__(self, keep_values: bool = True) -> None:
        self.count = 0
        self._mean = 0.0
        self._m2 = 0.0
        self.min = math.inf
        self.max = -math.inf
        self._values: Optional[List[float]] = [] if keep_values else None
        self._weights: Optional[List[int]] = [] if keep_values else None
        self._weighted = False

    def add(self, x: float, weight: int = 1) -> None:
        """Record one observation with integer multiplicity ``weight``.

        ``weight=n`` is equivalent to ``n`` calls of ``add(x)`` (used e.g.
        for per-batch latencies weighted by batch size) without storing
        ``n`` copies of the value.
        """
        if weight < 0:
            raise ValueError(f"negative weight {weight}")
        if weight == 0:
            return
        x = float(x)
        self.count += weight
        delta = x - self._mean
        self._mean += delta * weight / self.count
        self._m2 += delta * weight * (x - self._mean)
        if x < self.min:
            self.min = x
        if x > self.max:
            self.max = x
        if weight != 1:
            self._weighted = True
        if self._values is not None:
            self._values.append(x)
            self._weights.append(int(weight))

    def extend(self, xs: Iterable[float]) -> None:
        """Record many observations."""
        for x in xs:
            self.add(x)

    @property
    def mean(self) -> float:
        """Arithmetic mean (0.0 when empty)."""
        return self._mean if self.count else 0.0

    @property
    def variance(self) -> float:
        """Population variance (0.0 with fewer than two observations)."""
        return self._m2 / self.count if self.count >= 2 else 0.0

    @property
    def stdev(self) -> float:
        """Population standard deviation."""
        return math.sqrt(self.variance)

    @property
    def total(self) -> float:
        """Sum of all observations."""
        return self._mean * self.count

    def quantile(self, q: float) -> float:
        """Exact ``q``-quantile (requires ``keep_values=True``).

        With weighted observations this matches ``np.quantile`` over the
        weight-expanded sample, computed without materializing it.
        """
        if self._values is None:
            raise ValueError("Summary built with keep_values=False")
        if not self._values:
            return 0.0
        if not self._weighted:
            return float(np.quantile(np.asarray(self._values), q))
        order = np.argsort(np.asarray(self._values, dtype=np.float64))
        vals = np.asarray(self._values, dtype=np.float64)[order]
        cumw = np.cumsum(np.asarray(self._weights, dtype=np.int64)[order])
        # linear interpolation at virtual index q * (N - 1) of the
        # expanded sorted sample, N = total weight
        pos = q * (self.count - 1)
        i0 = int(math.floor(pos))
        frac = pos - i0
        v0 = vals[np.searchsorted(cumw, i0, side="right")]
        v1 = vals[np.searchsorted(cumw, min(i0 + 1, self.count - 1),
                                  side="right")]
        return float(v0 + (v1 - v0) * frac)

    @property
    def p50(self) -> float:
        """Median."""
        return self.quantile(0.50)

    @property
    def p95(self) -> float:
        """95th percentile."""
        return self.quantile(0.95)

    @property
    def p99(self) -> float:
        """99th percentile."""
        return self.quantile(0.99)

    def values(self) -> List[float]:
        """All recorded observations, weight-expanded (copy)."""
        if self._values is None:
            raise ValueError("Summary built with keep_values=False")
        if not self._weighted:
            return list(self._values)
        return [x for x, w in zip(self._values, self._weights)
                for _ in range(w)]

    def __len__(self) -> int:
        return self.count

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        if not self.count:
            return "Summary(empty)"
        return (
            f"Summary(n={self.count}, mean={self.mean:.4g}, "
            f"sd={self.stdev:.4g}, min={self.min:.4g}, max={self.max:.4g})"
        )


@dataclass
class TimeWeighted:
    """Time-weighted average of a piecewise-constant signal.

    Call :meth:`update` whenever the level changes; query :meth:`average`
    for the time integral divided by elapsed time.  Used for utilization
    and queue-length metrics in the simulators.
    """

    start_time: float = 0.0
    _level: float = 0.0
    _last_t: float = field(default=0.0)
    _area: float = field(default=0.0)
    _initialized: bool = field(default=False)

    def update(self, t: float, level: float) -> None:
        """Signal takes value ``level`` from time ``t`` onward."""
        if not self._initialized:
            self.start_time = t
            self._last_t = t
            self._level = level
            self._initialized = True
            return
        if t < self._last_t:
            raise ValueError("time must be nondecreasing")
        self._area += self._level * (t - self._last_t)
        self._last_t = t
        self._level = level

    def average(self, now: Optional[float] = None) -> float:
        """Time average from the first update until ``now`` (or last update)."""
        if not self._initialized:
            return 0.0
        end = self._last_t if now is None else now
        if end < self._last_t:
            raise ValueError("now precedes last update")
        area = self._area + self._level * (end - self._last_t)
        span = end - self.start_time
        return area / span if span > 0 else self._level

    @property
    def level(self) -> float:
        """Current level of the signal."""
        return self._level


def jain_index(xs: Sequence[float]) -> float:
    """Jain's fairness index of allocations ``xs`` — 1.0 is perfectly fair.

    ``J = (sum x)^2 / (n * sum x^2)``, in ``(0, 1]``; by convention an empty
    or all-zero allocation has index 1.0.
    """
    arr = np.asarray(list(xs), dtype=np.float64)
    if arr.size == 0:
        return 1.0
    denom = arr.size * float((arr ** 2).sum())
    if denom == 0.0:
        return 1.0
    return float(arr.sum() ** 2 / denom)


def percentile(xs: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (``q`` in [0, 100]) of a sequence."""
    arr = np.asarray(list(xs), dtype=np.float64)
    if arr.size == 0:
        return 0.0
    return float(np.percentile(arr, q))
