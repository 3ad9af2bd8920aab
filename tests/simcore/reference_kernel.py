"""Test-only reference: the kernel's event queue as it was, an
:class:`~repro.common.pqueue.IndexedHeap` keyed by event with
``(time, priority, seq)`` priorities and in-place decrease-key.

``test_event_queue.py`` drives :class:`~repro.simcore.Simulator` and this
copy with the same operations.  The queue methods are kept verbatim from
the indexed-heap kernel; everything else is inherited.
"""

from __future__ import annotations

from repro.common.errors import SimulationError
from repro.common.pqueue import IndexedHeap
from repro.simcore import Simulator
from repro.simcore.events import Event
from repro.simcore.kernel import NORMAL


class ReferenceSimulator(Simulator):
    """A :class:`Simulator` whose event queue is an ``IndexedHeap``."""

    def __init__(self, start_time: float = 0.0) -> None:
        super().__init__(start_time)
        self._queue = IndexedHeap()
        self._seq = 0

    def _schedule(self, event: Event, delay: float = 0.0,
                  priority: int = NORMAL) -> None:
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        self._seq += 1
        self._queue.push(event, (self.now + delay, priority, self._seq))

    def reschedule(self, event: Event, delay: float) -> None:
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        self._seq += 1
        self._queue.update(event, (self.now + delay, NORMAL, self._seq))

    def peek(self) -> float:
        if not self._queue:
            return float("inf")
        _, (t, _, _) = self._queue.peek()
        return t

    def step(self) -> None:
        if not self._queue:
            raise SimulationError("step() on empty event queue")
        event, (t, _, _) = self._queue.pop()
        self.now = t
        self.events_processed += 1
        obs = self._observer
        if obs is not None:
            obs.on_event(self, event, t)
        event._run_callbacks()
        if event.ok is False and not event.defused:
            raise event._value
