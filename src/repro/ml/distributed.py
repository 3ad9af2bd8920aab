"""Distributed SGD simulation: synchronous allreduce vs asynchronous PS.

Real gradients on real data drive real convergence; only *time* is
simulated, from per-worker compute speeds and a communication model:

* **sync** — every step waits for the slowest worker (barrier), then
  averages gradients (ring-allreduce time charged once per step).
  Statistically efficient (effective batch = sum of workers) but
  straggler-bound.
* **async** — each worker fetches parameters, computes on its own clock,
  and applies its (possibly stale) gradient on completion — Hogwild/
  parameter-server timing.  No barrier, so stragglers only slow their own
  updates, at the price of gradient staleness.
* **localsgd** — periodic parameter averaging (local SGD): every worker
  takes ``local_steps`` steps on its shard between synchronizations,
  dividing communication rounds by ``local_steps`` at a (usually small)
  statistical-efficiency cost — the tradeoff ablation A8 sweeps.

Experiment T8 sweeps straggler severity and compares loss-versus-simtime.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from ..common.errors import ReproError
from ..common.rng import RandomState, ensure_rng, spawn
from .sgd import logistic_grad, logistic_loss

__all__ = ["DistTrainConfig", "DistTrainResult", "train_distributed"]

#: Minibatch size per worker.
BATCH_SIZE = 32


@dataclass(frozen=True)
class DistTrainConfig:
    """Knobs for the distributed trainer."""

    mode: str = "sync"              # "sync" | "async" | "localsgd"
    n_workers: int = 4
    lr: float = 0.5
    total_updates: int = 400        # global parameter updates / sync rounds
    grad_compute_time: float = 0.05  # seconds per minibatch on a 1.0x worker
    comm_time: float = 0.01          # allreduce (sync) / push+pull (async)
    l2: float = 0.0
    eval_every: int = 20
    local_steps: int = 1             # localsgd: steps between averagings

    def __post_init__(self) -> None:
        if self.mode not in ("sync", "async", "localsgd"):
            raise ReproError("mode must be 'sync', 'async', or 'localsgd'")
        if self.n_workers < 1 or self.total_updates < 1:
            raise ReproError("need workers and updates >= 1")
        if self.local_steps < 1:
            raise ReproError("local_steps must be >= 1")


@dataclass
class DistTrainResult:
    """Trajectory with simulated timestamps."""

    w: np.ndarray
    times: List[float] = field(default_factory=list)
    losses: List[float] = field(default_factory=list)
    staleness_mean: float = 0.0
    wall_time: float = 0.0

    def time_to_loss(self, target: float) -> float:
        """First simulated time the loss dipped below ``target`` (inf if never)."""
        for ti, li in zip(self.times, self.losses):
            if li <= target:
                return ti
        return float("inf")


def train_distributed(X: np.ndarray, y: np.ndarray,
                      config: DistTrainConfig,
                      worker_speeds: Optional[Sequence[float]] = None,
                      grad_fn: Callable = logistic_grad,
                      loss_fn: Callable = logistic_loss,
                      seed: RandomState = None) -> DistTrainResult:
    """Simulate data-parallel SGD; returns weights + loss-vs-time curve.

    ``worker_speeds`` scales each worker's compute rate (1.0 = nominal);
    a straggler is a speed < 1.  Data is sharded contiguously across
    workers (each samples minibatches from its own shard, as in practice).
    """
    rng = ensure_rng(seed)
    cfg = config
    if worker_speeds is None:
        worker_speeds = [1.0] * cfg.n_workers
    if len(worker_speeds) != cfg.n_workers:
        raise ReproError("worker_speeds must have one entry per worker")
    if min(worker_speeds) <= 0:
        raise ReproError("speeds must be positive")
    n, d = X.shape
    shards = np.array_split(np.arange(n), cfg.n_workers)
    worker_rngs = spawn(rng, cfg.n_workers)
    w = np.zeros(d)
    result = DistTrainResult(w)

    def sample_grad(widx: int, params: np.ndarray) -> np.ndarray:
        shard = shards[widx]
        take = min(BATCH_SIZE, len(shard))
        idx = shard[worker_rngs[widx].integers(0, len(shard), size=take)]
        return grad_fn(params, X[idx], y[idx], cfg.l2)

    def record(t: float, params: np.ndarray, step: int) -> None:
        if step % cfg.eval_every == 0 or step == cfg.total_updates - 1:
            result.times.append(t)
            result.losses.append(loss_fn(params, X, y, cfg.l2))

    if cfg.mode == "sync":
        t = 0.0
        step_time = max(cfg.grad_compute_time / s for s in worker_speeds) \
            + cfg.comm_time
        for step in range(cfg.total_updates):
            grads = [sample_grad(i, w) for i in range(cfg.n_workers)]
            w = w - cfg.lr * np.mean(grads, axis=0)
            t += step_time
            record(t, w, step)
        result.w = w
        result.wall_time = t
        return result

    if cfg.mode == "localsgd":
        # each round: H local steps per worker, then parameter averaging;
        # one communication per round instead of per step
        t = 0.0
        round_time = cfg.local_steps * max(
            cfg.grad_compute_time / s for s in worker_speeds) + cfg.comm_time
        for rnd in range(cfg.total_updates):
            locals_ = []
            for i in range(cfg.n_workers):
                wi = w.copy()
                for _ in range(cfg.local_steps):
                    wi = wi - cfg.lr * sample_grad(i, wi)
                locals_.append(wi)
            w = np.mean(locals_, axis=0)
            t += round_time
            record(t, w, rnd)
        result.w = w
        result.wall_time = t
        return result

    # async: priority queue of (finish_time, worker, params_version_at_fetch)
    version = 0
    staleness: List[int] = []
    heap: List[Tuple[float, int, np.ndarray, int]] = []
    for i in range(cfg.n_workers):
        dur = cfg.grad_compute_time / worker_speeds[i] + cfg.comm_time
        heapq.heappush(heap, (dur, i, w.copy(), version))
    updates = 0
    t = 0.0
    while updates < cfg.total_updates:
        t, widx, fetched_w, fetched_ver = heapq.heappop(heap)
        g = sample_grad(widx, fetched_w)
        w = w - cfg.lr * g
        version += 1
        staleness.append(version - 1 - fetched_ver)
        record(t, w, updates)
        updates += 1
        dur = cfg.grad_compute_time / worker_speeds[widx] + cfg.comm_time
        heapq.heappush(heap, (t + dur, widx, w.copy(), version))
    result.w = w
    result.wall_time = t
    result.staleness_mean = float(np.mean(staleness)) if staleness else 0.0
    return result
