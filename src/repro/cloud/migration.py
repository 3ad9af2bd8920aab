"""Live VM migration models (experiment F5).

Implements the three classic mechanisms:

* **stop-and-copy** — halt the VM, copy all memory; downtime = total time.
* **pre-copy** (Clark et al., the Xen/KVM default) — copy memory while the
  VM runs; each round re-copies the pages dirtied during the previous
  round; stop when the residual dirty set is small or rounds are
  exhausted, then copy the remainder during a short stop.
* **post-copy** — stop briefly, move CPU state, resume on the target and
  pull pages on demand; constant small downtime but a degraded period
  while the memory streams over.

Analytic forms (:func:`stop_and_copy`, :func:`pre_copy`, :func:`post_copy`)
take a fixed bandwidth; :func:`simulate_pre_copy` runs the same rounds as
real transfers on a :class:`~repro.net.netsim.NetworkSim`, so migration
traffic contends with whatever else the network carries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..common.errors import MigrationError
from ..net.netsim import NetworkSim
from ..simcore.events import Event
from ..simcore.kernel import Simulator

__all__ = [
    "MigrationResult", "stop_and_copy", "pre_copy", "post_copy",
    "simulate_pre_copy",
]


@dataclass
class MigrationResult:
    """Outcome of one migration."""

    mechanism: str
    total_time: float          # start of migration -> VM fully on target
    downtime: float            # VM paused / unresponsive
    transferred_bytes: float   # total data moved
    rounds: int = 1            # copy rounds (pre-copy)
    degraded_time: float = 0.0  # post-copy demand-paging period


def _validate(mem_bytes: float, bandwidth: float) -> None:
    if mem_bytes <= 0:
        raise MigrationError("memory size must be positive")
    if bandwidth <= 0:
        raise MigrationError("bandwidth must be positive")


def stop_and_copy(mem_bytes: float, bandwidth: float) -> MigrationResult:
    """Halt, copy everything, resume: downtime equals total time."""
    _validate(mem_bytes, bandwidth)
    t = mem_bytes / bandwidth
    return MigrationResult("stop_and_copy", t, t, mem_bytes)


def pre_copy(mem_bytes: float, bandwidth: float, dirty_rate: float,
             max_rounds: int = 30,
             stop_threshold_bytes: Optional[float] = None) -> MigrationResult:
    """Iterative pre-copy.

    Round 0 copies all memory in ``t0 = M/B``; during it ``D * t0`` bytes
    dirty, which round 1 re-copies, and so on — a geometric series with
    ratio ``D/B``.  Rounds stop when the residual dirty set drops below
    ``stop_threshold_bytes`` (default: 100 ms of link time) or at
    ``max_rounds``; the residual is copied during the stop, giving the
    downtime.  When ``D >= B`` the series does not converge and the
    algorithm falls back to stopping at ``max_rounds`` with a large
    residual — exactly the published divergence behaviour.
    """
    _validate(mem_bytes, bandwidth)
    if dirty_rate < 0:
        raise MigrationError("dirty rate must be nonnegative")
    if max_rounds < 1:
        raise MigrationError("need at least one round")
    if stop_threshold_bytes is None:
        stop_threshold_bytes = 0.1 * bandwidth   # ~100 ms of downtime
    to_copy = float(mem_bytes)
    total_time = 0.0
    transferred = 0.0
    rounds = 0
    while rounds < max_rounds:
        rounds += 1
        t = to_copy / bandwidth
        total_time += t
        transferred += to_copy
        dirtied = min(dirty_rate * t, mem_bytes)
        if dirtied <= stop_threshold_bytes or dirtied >= to_copy:
            # converged (tiny residual) or stopped converging (ratio >= 1)
            to_copy = dirtied
            break
        to_copy = dirtied
    downtime = to_copy / bandwidth
    total_time += downtime
    transferred += to_copy
    return MigrationResult("pre_copy", total_time, downtime, transferred,
                           rounds=rounds)


def post_copy(mem_bytes: float, bandwidth: float,
              state_bytes: float = 8 * 1024 * 1024,
              fault_overhead: float = 1.25) -> MigrationResult:
    """Post-copy: constant short downtime, degraded demand-paging period.

    ``state_bytes`` is the CPU/device state moved during the stop;
    ``fault_overhead`` inflates the streaming period for page-fault
    round-trips (>= 1).
    """
    _validate(mem_bytes, bandwidth)
    if fault_overhead < 1.0:
        raise MigrationError("fault overhead cannot be below 1")
    downtime = state_bytes / bandwidth
    degraded = (mem_bytes / bandwidth) * fault_overhead
    total = downtime + degraded
    return MigrationResult("post_copy", total, downtime,
                           mem_bytes + state_bytes, degraded_time=degraded)


def simulate_pre_copy(net: NetworkSim, src: str, dst: str, mem_bytes: float,
                      dirty_rate: float, max_rounds: int = 30,
                      stop_threshold_bytes: Optional[float] = None) -> Event:
    """Pre-copy with each round as a real network transfer.

    Returns an event firing with a :class:`MigrationResult` whose round
    times reflect the bandwidth the flow actually achieved (so concurrent
    traffic stretches migrations, as in production).
    """
    _validate(mem_bytes, 1.0)
    sim: Simulator = net.sim
    done = sim.event()

    def _proc(sim: Simulator):
        threshold = stop_threshold_bytes
        to_copy = float(mem_bytes)
        transferred = 0.0
        rounds = 0
        t_start = sim.now
        while rounds < max_rounds:
            rounds += 1
            stats = yield net.transfer(src, dst, to_copy)
            transferred += to_copy
            t = stats.duration
            achieved_bw = to_copy / t if t > 0 else float("inf")
            thr = threshold if threshold is not None else 0.1 * achieved_bw
            dirtied = min(dirty_rate * t, mem_bytes)
            if dirtied <= thr or dirtied >= to_copy:
                to_copy = dirtied
                break
            to_copy = dirtied
        stats = yield net.transfer(src, dst, to_copy)
        transferred += to_copy
        downtime = stats.duration
        done.succeed(MigrationResult("pre_copy", sim.now - t_start,
                                     downtime, transferred, rounds=rounds))
    sim.process(_proc(sim), name=f"migrate:{src}->{dst}")
    return done
