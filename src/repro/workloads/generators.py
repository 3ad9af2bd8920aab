"""Workload generators for the experiment suite.

Everything is deterministic per seed and parameterized by the
distributional knobs the experiments sweep (skew, burstiness, heavy
tails): Zipf text for WordCount, TeraGen-style records for sorting,
Google-trace-flavoured job mixes for the schedulers, arrival-rate traces
for autoscaling, and web-session logs for the streaming examples.
"""

from __future__ import annotations

import string
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..common.errors import ConfigError
from ..common.rng import RandomState, ensure_rng, zipf_pmf
from ..scheduler.jobs import JobSpec, Resources

__all__ = [
    "zipf_text", "teragen", "job_mix", "poisson_rate_trace",
    "mmpp_rate_trace", "web_sessions", "zipf_block_trace", "event_stream",
]


def _vocabulary(size: int, rng: np.random.Generator) -> List[str]:
    letters = string.ascii_lowercase
    words = set()
    out = []
    while len(out) < size:
        length = int(rng.integers(3, 10))
        w = "".join([letters[i] for i in rng.integers(0, 26, size=length)])
        if w not in words:
            words.add(w)
            out.append(w)
    return out


def zipf_text(n_docs: int, words_per_doc: int, vocab_size: int = 1000,
              skew: float = 1.0, seed: RandomState = None) -> List[str]:
    """Documents of Zipf-distributed words (the WordCount workload).

    ``skew`` is the Zipf exponent: 0 = uniform, ~1 = natural language.
    """
    if n_docs < 1 or words_per_doc < 1 or vocab_size < 1:
        raise ConfigError("counts must be positive")
    rng = ensure_rng(seed)
    vocab = np.array(_vocabulary(vocab_size, rng), dtype=object)
    # inverse-CDF draws, as ``rng.choice(vocab_size, p=pmf)`` makes them,
    # for up to 64Ki words at a time (bounds the temporaries)
    cdf = zipf_pmf(vocab_size, skew).cumsum()
    cdf /= cdf[-1]
    rows = max(1, 65536 // words_per_doc)
    docs: List[str] = []
    for start in range(0, n_docs, rows):
        u = rng.random((min(rows, n_docs - start), words_per_doc))
        docs += map(" ".join, vocab[cdf.searchsorted(u, side="right")].tolist())
    return docs


def teragen(n_records: int, key_bytes: int = 10, payload_bytes: int = 90,
            seed: RandomState = None) -> List[Tuple[bytes, bytes]]:
    """TeraGen-style (random key, payload) records for sort benchmarks."""
    if n_records < 0 or key_bytes < 1:
        raise ConfigError("bad record shape")
    rng = ensure_rng(seed)
    keys = rng.integers(0, 256, size=(n_records, key_bytes), dtype=np.uint8)
    payload = bytes(payload_bytes)
    return [(keys[i].tobytes(), payload) for i in range(n_records)]


def job_mix(n_jobs: int, horizon: float,
            short_frac: float = 0.8,
            short_tasks: Tuple[int, int] = (1, 10),
            long_tasks: Tuple[int, int] = (20, 200),
            short_duration: Tuple[float, float] = (1.0, 10.0),
            long_duration: Tuple[float, float] = (10.0, 60.0),
            mem_per_task: Tuple[float, float] = (0.5, 4.0),
            n_users: int = 4,
            seed: RandomState = None) -> List[JobSpec]:
    """A Google-trace-flavoured mix: many short jobs, few large ones.

    Arrivals are Poisson over ``horizon``; task durations are lognormal
    around each class's range (heavy tail).  Every job carries a
    (cpu=1, mem) demand so DRF has a second dimension to balance.
    """
    if n_jobs < 1 or horizon <= 0:
        raise ConfigError("need jobs and a horizon")
    rng = ensure_rng(seed)
    arrivals = np.sort(rng.random(n_jobs) * horizon)
    specs: List[JobSpec] = []
    for j in range(n_jobs):
        is_short = rng.random() < short_frac
        t_lo, t_hi = short_tasks if is_short else long_tasks
        d_lo, d_hi = short_duration if is_short else long_duration
        n_tasks = int(rng.integers(t_lo, t_hi + 1))
        mean_d = float(rng.uniform(d_lo, d_hi))
        # lognormal with the chosen mean, sigma=0.5 (heavy-ish tail)
        sigma = 0.5
        mu = np.log(mean_d) - sigma ** 2 / 2
        durations = tuple(float(x) for x in
                          rng.lognormal(mu, sigma, size=n_tasks))
        mem = float(rng.uniform(*mem_per_task))
        specs.append(JobSpec(
            job_id=j, arrival=float(arrivals[j]),
            task_durations=durations,
            demand=Resources(1.0, mem),
            user=f"user{int(rng.integers(0, n_users))}",
            queue="prod" if rng.random() < 0.5 else "dev",
        ))
    return specs


def poisson_rate_trace(mean_rate: float, duration: float, dt: float = 1.0,
                       seed: RandomState = None) -> np.ndarray:
    """Per-tick arrival rates with Poisson fluctuation around the mean."""
    if mean_rate < 0 or duration <= 0 or dt <= 0:
        raise ConfigError("bad trace parameters")
    rng = ensure_rng(seed)
    n = int(np.ceil(duration / dt))
    return rng.poisson(mean_rate * dt, size=n) / dt


def mmpp_rate_trace(low_rate: float, high_rate: float, duration: float,
                    mean_low_dwell: float = 300.0,
                    mean_high_dwell: float = 60.0,
                    dt: float = 1.0,
                    seed: RandomState = None) -> np.ndarray:
    """Markov-modulated (bursty) rate trace: low/high states with
    exponential dwell times — the standard bursty-cloud-load model."""
    if high_rate < low_rate:
        raise ConfigError("high_rate must be >= low_rate")
    rng = ensure_rng(seed)
    n = int(np.ceil(duration / dt))
    out = np.empty(n)
    state_high = False
    t_next = float(rng.exponential(mean_low_dwell))
    t = 0.0
    for i in range(n):
        if t >= t_next:
            state_high = not state_high
            dwell = mean_high_dwell if state_high else mean_low_dwell
            t_next = t + float(rng.exponential(dwell))
        out[i] = high_rate if state_high else low_rate
        t += dt
    return out


def web_sessions(n_users: int, horizon: float,
                 mean_session_events: float = 8.0,
                 mean_gap: float = 20.0,
                 mean_intersession: float = 600.0,
                 n_pages: int = 50, page_skew: float = 1.0,
                 seed: RandomState = None) -> List[Tuple[float, int, str]]:
    """Clickstream events ``(timestamp, user_id, page)`` with session structure.

    Users alternate sessions (events ``mean_gap`` apart, geometric length)
    with long idle periods — the input for sessionization examples and the
    session-window tests.  Sorted by timestamp.
    """
    rng = ensure_rng(seed)
    pmf = zipf_pmf(n_pages, page_skew)
    pages = np.array([f"/page{i}" for i in range(n_pages)], dtype=object)
    events: List[Tuple[float, int, str]] = []
    for u in range(n_users):
        t = float(rng.exponential(mean_intersession))
        while t < horizon:
            n_ev = 1 + int(rng.geometric(1.0 / mean_session_events))
            for _ in range(n_ev):
                if t >= horizon:
                    break
                page = str(pages[int(rng.choice(n_pages, p=pmf))])
                events.append((t, u, page))
                t += float(rng.exponential(mean_gap))
            t += float(rng.exponential(mean_intersession))
    events.sort(key=lambda e: e[0])
    return events


def zipf_block_trace(n_accesses: int, n_blocks: int, skew: float = 0.8,
                     seed: RandomState = None) -> np.ndarray:
    """Block-id access trace with Zipf popularity (cache experiments)."""
    if n_accesses < 0 or n_blocks < 1:
        raise ConfigError("bad trace shape")
    rng = ensure_rng(seed)
    pmf = zipf_pmf(n_blocks, skew)
    return rng.choice(n_blocks, size=n_accesses, p=pmf)


def event_stream(scenario: str, rate: float, duration: float,
                 n_keys: int = 32, key_skew: float = 1.2,
                 ooo_delay: float = 0.3, dt: float = 0.5,
                 seed: RandomState = None
                 ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Timestamped event arrivals for the streaming pipeline benchmarks.

    Returns ``(arrival, ts, keys, values)`` sorted by arrival time:
    ``arrival`` is wall-clock receipt, ``ts`` the (possibly out-of-order)
    event time — each event is delayed by an exponential network lag of
    mean ``ooo_delay`` between happening and arriving.  Scenarios:

    * ``"uniform"`` — homogeneous Poisson arrivals at ``rate``;
    * ``"bursty"``  — MMPP arrivals via :func:`mmpp_rate_trace` (low =
      rate/2, high = 2*rate, fast dwells), same *mean* order of load but
      strongly time-correlated;
    * ``"skewed"``  — uniform Poisson arrivals with Zipf(``key_skew``)
      keys, concentrating state churn on a few hot keys.
    """
    if rate < 0 or duration <= 0 or n_keys < 1:
        raise ConfigError("bad stream parameters")
    rng = ensure_rng(seed)
    if scenario == "bursty":
        rates = mmpp_rate_trace(rate / 2.0, 2.0 * rate, duration,
                                mean_low_dwell=duration / 4.0,
                                mean_high_dwell=duration / 8.0,
                                dt=dt, seed=rng)
        counts = rng.poisson(rates * dt)
        arrival = np.concatenate([
            t0 + np.sort(rng.uniform(0.0, dt, c))
            for t0, c in zip(np.arange(len(counts)) * dt, counts)
        ]) if counts.sum() else np.empty(0)
        arrival = arrival[arrival < duration]
    elif scenario in ("uniform", "skewed"):
        n_est = rng.poisson(rate * duration)
        arrival = np.sort(rng.uniform(0.0, duration, n_est))
    else:
        raise ConfigError(f"unknown scenario {scenario!r}")
    n = len(arrival)
    ts = arrival - rng.exponential(ooo_delay, n) if ooo_delay > 0 \
        else arrival.copy()
    ts = np.maximum(ts, 0.0)
    if scenario == "skewed":
        pmf = zipf_pmf(n_keys, key_skew)
        keys = rng.choice(n_keys, size=n, p=pmf).astype(np.int64)
    else:
        keys = rng.integers(0, n_keys, n, dtype=np.int64)
    values = rng.integers(0, 100, n, dtype=np.int64)
    return arrival, ts, keys, values
