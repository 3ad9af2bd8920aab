"""Processor-sharing fluid resource.

Models a capacity (disk bandwidth, a NIC, a CPU run queue) divided
*equally* among all jobs currently using it — the fluid limit of
round-robin service.  Used for per-node disk I/O and as the compute model
inside executors.  Event-driven: rates are recomputed only when a job
arrives or departs, and the next completion is one moved ``fluid-waker``
:class:`~repro.simcore.kernel.Alarm`.
"""

from __future__ import annotations

from typing import Dict

from ..simcore.events import Event
from ..simcore.kernel import Alarm, Simulator

__all__ = ["FluidResource"]

_EPS = 1e-9


class _Job:
    __slots__ = ("jid", "remaining", "event", "start", "weight")

    def __init__(self, jid: int, work: float, event: Event, start: float,
                 weight: float) -> None:
        self.jid = jid
        self.remaining = float(work)
        self.event = event
        self.start = start
        self.weight = weight


class FluidResource:
    """Capacity shared equally (or by weight) among concurrent jobs.

    ``submit(work)`` returns an event that fires when ``work`` units have
    been served; with ``capacity`` units/second total and ``n`` equal jobs,
    each progresses at ``capacity / n``.
    """

    def __init__(self, sim: Simulator, capacity: float, name: str = "") -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.sim = sim
        self.capacity = float(capacity)
        self.name = name
        self._jobs: Dict[int, _Job] = {}
        self._next_jid = 0
        self._last_t = sim.now
        self._alarm = Alarm(sim, self._tick, "fluid-waker")
        #: cumulative work served
        self.total_work = 0.0

    @property
    def active_jobs(self) -> int:
        """Number of jobs currently in service."""
        return len(self._jobs)

    def submit(self, work: float, weight: float = 1.0) -> Event:
        """Serve ``work`` units; the event fires at completion with elapsed time."""
        if work < 0:
            raise ValueError("work must be nonnegative")
        if weight <= 0:
            raise ValueError("weight must be positive")
        ev = self.sim.event()
        if work == 0:
            # complete on the next event-loop tick to keep causality uniform
            def _zero(sim: Simulator):
                yield sim.timeout(0.0)
                ev.succeed(0.0)
            self.sim.process(_zero(self.sim), name="fluid-zero")
            return ev
        jid = self._next_jid
        self._next_jid += 1
        self._advance()
        self._jobs[jid] = _Job(jid, work, ev, self.sim.now, weight)
        self.total_work += work
        self._reschedule()
        return ev

    def set_capacity(self, capacity: float) -> None:
        """Change total capacity (e.g. node slowdown); takes effect now."""
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self._advance()
        self.capacity = float(capacity)
        if self._jobs:
            self._reschedule()

    # -- engine --------------------------------------------------------------

    def _total_weight(self) -> float:
        return sum(j.weight for j in self._jobs.values())

    def _advance(self) -> None:
        now = self.sim.now
        dt = now - self._last_t
        if dt > 0 and self._jobs:
            tw = self._total_weight()
            for job in self._jobs.values():
                job.remaining -= self.capacity * (job.weight / tw) * dt
        self._last_t = now

    def _tick(self) -> None:
        self._advance()
        done = [j for j in self._jobs.values() if j.remaining <= _EPS]
        for job in done:
            del self._jobs[job.jid]
            job.event.succeed(self.sim.now - job.start)
        if self._jobs:
            self._reschedule()

    def _reschedule(self) -> None:
        tw = self._total_weight()
        self._alarm.set(min(j.remaining / (self.capacity * (j.weight / tw))
                            for j in self._jobs.values()))
