"""Machine model: node specifications and runtime node state.

A :class:`Node` bundles the simulated resources of one machine:

* ``cpu``  — a :class:`~repro.simcore.resources.Resource` with one server
  per core (task slots),
* ``disk`` — a :class:`~repro.cluster.fluid.FluidResource` sharing disk
  bandwidth among concurrent I/Os.

``speed`` scales compute: a task of ``w`` work units takes ``w / speed``
core-seconds.  Slowing a node down at runtime (straggler injection) only
affects compute started after the change — matching how real stragglers
are modeled in speculation studies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List

from ..simcore.events import Event
from ..simcore.kernel import Simulator
from ..simcore.resources import Resource
from .fluid import FluidResource

__all__ = ["NodeSpec", "Node"]


@dataclass(frozen=True)
class NodeSpec:
    """Static description of a machine."""

    cores: int = 4
    speed: float = 1.0                 # work units per core-second
    disk_bw: float = 200 * 1e6         # 200 MB/s spinning-disk-ish

    def __post_init__(self) -> None:
        if self.cores < 1:
            raise ValueError("cores must be >= 1")
        if self.speed <= 0:
            raise ValueError("speed must be positive")
        if self.disk_bw <= 0:
            raise ValueError("invalid capacity")


class Node:
    """A simulated machine: compute slots, disk, liveness."""

    def __init__(self, sim: Simulator, name: str, spec: NodeSpec,
                 rack: str = "rack0") -> None:
        self.sim = sim
        self.name = name
        self.spec = spec
        self.rack = rack
        self.alive = True
        self._speed_factor = 1.0
        self.cpu = Resource(sim, capacity=spec.cores, name=f"{name}.cpu")
        self.disk = FluidResource(sim, spec.disk_bw, name=f"{name}.disk")
        #: called with (node, event_str) on "fail" / "recover"
        self.listeners: List[Callable[["Node", str], None]] = []
        #: count of failures experienced
        self.failures = 0

    # -- compute -------------------------------------------------------------

    @property
    def effective_speed(self) -> float:
        """Current work units per core-second (spec speed × runtime factor)."""
        return self.spec.speed * self._speed_factor

    @property
    def speed_factor(self) -> float:
        """The current runtime speed multiplier (chaos adapters compose it)."""
        return self._speed_factor

    def set_speed_factor(self, factor: float) -> None:
        """Scale compute speed at runtime (straggler/DVFS injection)."""
        if factor <= 0:
            raise ValueError("speed factor must be positive")
        self._speed_factor = factor

    def compute(self, work: float) -> "Event":
        """Occupy one core for ``work`` work units; event fires when done.

        The core is held exclusively for the duration (slot semantics,
        like a task slot in Hadoop/Spark executors).
        """
        ev = self.sim.event()

        def _run(sim: Simulator):
            req = self.cpu.request()
            yield req
            try:
                yield sim.timeout(work / self.effective_speed)
            finally:
                self.cpu.release(req)
            ev.succeed(None)
        self.sim.process(_run(self.sim), name=f"{self.name}.compute")
        return ev

    # -- storage I/O -----------------------------------------------------------

    def disk_read(self, nbytes: float) -> Event:
        """Read ``nbytes`` from local disk (bandwidth-shared)."""
        return self.disk.submit(float(nbytes))

    def disk_write(self, nbytes: float) -> Event:
        """Write ``nbytes`` to local disk (bandwidth-shared)."""
        return self.disk.submit(float(nbytes))

    # -- liveness --------------------------------------------------------------

    def fail(self) -> None:
        """Mark the node dead and notify listeners."""
        if not self.alive:
            return
        self.alive = False
        self.failures += 1
        for cb in list(self.listeners):
            cb(self, "fail")

    def recover(self) -> None:
        """Mark the node live again and notify listeners."""
        if self.alive:
            return
        self.alive = True
        for cb in list(self.listeners):
            cb(self, "recover")

    def __repr__(self) -> str:  # pragma: no cover
        state = "up" if self.alive else "DOWN"
        return f"<Node {self.name} [{state}] {self.spec.cores}c x{self.effective_speed:g}>"
