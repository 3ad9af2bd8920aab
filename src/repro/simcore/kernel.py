"""The discrete-event simulation kernel.

:class:`Simulator` owns the clock and the event queue; :class:`Process`
wraps a generator coroutine that yields :class:`~repro.simcore.events.Event`
instances to wait on them.  The design follows the classic process-based
DES structure (SimPy-style), implemented from scratch on an
:class:`EventQueue` (a :mod:`heapq` list) with deterministic tie-breaking:

    events fire in (time, priority, sequence-number) order

so two runs with the same seeds replay identically.
"""

from __future__ import annotations

import math
from heapq import heappop, heappush
from typing import (
    Any, Callable, Generator, Iterable, List, Optional, Set, Tuple,
)

from ..common.errors import SimulationError
from .events import AllOf, AnyOf, Event, Interrupt, PENDING, Timeout

__all__ = ["Simulator", "Process", "Alarm", "EventQueue", "NORMAL", "URGENT"]

#: Priority for ordinary events.
NORMAL = 1
#: Priority for events that must precede same-time NORMAL events
#: (used by interrupts so the victim sees the interrupt first).
URGENT = 0

ProcessGen = Generator[Event, Any, Any]


class EventQueue:
    """The kernel's event queue: ``(t, priority, seq, event)`` entries on a
    :mod:`heapq` list, popped in exactly (time, priority, seq) order.

    ``seq`` is unique, so entries never compare their events.  Moving an
    event pushes a new entry and *tombstones* the old one: its ``seq`` goes
    into :attr:`dead` until the entry reaches the head and is dropped, so
    ``len()`` (live entries) is ``len(heap) - len(dead)``.  Each queued
    event records the ``seq`` of its live entry in ``_queue_seq``.
    """

    __slots__ = ("heap", "dead", "_seq")

    def __init__(self) -> None:
        self.heap: List[Tuple[float, int, int, Event]] = []
        self.dead: Set[int] = set()
        self._seq = 0

    def __len__(self) -> int:
        return len(self.heap) - len(self.dead)

    def push(self, event: Event, t: float, priority: int) -> None:
        """Queue ``event`` at ``(t, priority)`` after every earlier push."""
        self._seq += 1
        heappush(self.heap, (t, priority, self._seq, event))
        event._queue_seq = self._seq

    def move(self, event: Event, t: float, priority: int) -> None:
        """Requeue the queued ``event`` at ``(t, priority)``, earlier or
        later, ordered as if pushed now."""
        self.dead.add(event._queue_seq)
        self.push(event, t, priority)

    def peek(self) -> float:
        """Time of the next live entry, or ``inf`` when there is none."""
        heap, dead = self.heap, self.dead
        while dead and heap[0][2] in dead:
            dead.remove(heappop(heap)[2])
        return heap[0][0] if heap else math.inf

    def pop(self) -> Tuple[float, Event]:
        """Remove the next live entry; returns its ``(t, event)``.
        Raises ``IndexError`` when there is none."""
        heap, dead = self.heap, self.dead
        while True:
            t, _, seq, event = heappop(heap)
            if seq not in dead:
                return t, event
            dead.remove(seq)

    def check_invariants(self) -> None:
        """Assert heap order on ``(t, priority, seq)``, that every
        tombstone names an entry still in the heap, and that the live
        entries are exactly the queued events' current entries."""
        heap, dead = self.heap, self.dead
        for i in range(1, len(heap)):
            assert heap[(i - 1) >> 1][:3] <= heap[i][:3], f"heap order at {i}"
        seqs = {entry[2] for entry in heap}
        assert len(seqs) == len(heap), "duplicate seq"
        assert dead <= seqs, f"dangling tombstones {sorted(dead - seqs)}"
        queued = set()
        for _, _, seq, event in heap:
            live = seq not in dead
            assert live == (event._queue_seq == seq), f"entry {seq}"
            if live:
                queued.add(id(event))
        assert len(self) == len(queued), "live count"


class Process(Event):
    """A running generator coroutine inside the simulation.

    A process *is* an event: it triggers with the generator's return value
    when the generator finishes (or fails with its exception), so other
    processes can ``yield proc`` to join it.
    """

    def __init__(self, sim: "Simulator", gen: ProcessGen, name: str = "") -> None:
        if not hasattr(gen, "send"):
            raise TypeError(f"process body must be a generator, got {type(gen)!r}")
        super().__init__(sim)
        self.gen = gen
        self.name = name or getattr(gen, "__name__", "process")
        self._target: Optional[Event] = None
        # bootstrap: resume once at the current time
        init = Event(sim)
        init._ok = True
        init._value = None
        sim._schedule(init)
        init.callbacks.append(self._resume)

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return self._value is PENDING

    def interrupt(self, cause: Any = None) -> None:
        """Raise :class:`Interrupt` inside this process at the current time.

        Interrupting a finished process is an error; interrupting a process
        that is waiting on an event detaches it from that event.
        """
        if not self.is_alive:
            raise RuntimeError(f"cannot interrupt finished process {self.name!r}")
        if self._target is self:
            raise RuntimeError("a process cannot interrupt itself at spawn")
        ev = Event(self.sim)
        ev._ok = False
        ev._value = Interrupt(cause)
        ev.defused = True  # the interrupt is delivered, never "unhandled"
        ev.callbacks.append(self._resume)
        self.sim._schedule(ev, priority=URGENT)

    def _resume(self, event: Event) -> None:
        self.sim._active_proc = self
        # detach from the event we were waiting on, if interrupted away
        if self._target is not None and self._target is not event:
            if self._target.callbacks is not None:
                try:
                    self._target.callbacks.remove(self._resume)
                except ValueError:
                    pass
        self._target = None
        try:
            if event.ok:
                next_ev = self.gen.send(event.value)
            else:
                # mark consumed, then throw into the generator
                event.defused = True
                next_ev = self.gen.throw(event.value)
        except StopIteration as stop:
            self.sim._active_proc = None
            self.succeed(stop.value)
            return
        except BaseException as exc:
            self.sim._active_proc = None
            self.fail(exc)
            return
        self.sim._active_proc = None

        if not isinstance(next_ev, Event):
            raise SimulationError(
                f"process {self.name!r} yielded {next_ev!r}; processes must "
                f"yield Event instances")
        if next_ev.sim is not self.sim:
            raise SimulationError("yielded event belongs to a different simulator")
        if next_ev.callbacks is not None:
            self._target = next_ev
            next_ev.callbacks.append(self._resume)
        else:
            # already processed: resume immediately at the current time
            resume = Event(self.sim)
            resume._ok = next_ev.ok
            resume._value = next_ev._value
            if next_ev.ok is False:
                next_ev.defused = True
            self.sim._schedule(resume)
            resume.callbacks.append(self._resume)

    def __repr__(self) -> str:  # pragma: no cover
        state = "alive" if self.is_alive else "done"
        return f"<Process {self.name} {state}>"


class Simulator:
    """Event loop for discrete-event simulation.

    Typical use::

        sim = Simulator()

        def worker(sim):
            yield sim.timeout(2.0)
            return "done"

        proc = sim.process(worker(sim))
        sim.run()
        assert sim.now == 2.0 and proc.value == "done"
    """

    def __init__(self, start_time: float = 0.0) -> None:
        self.now = float(start_time)
        self._queue = EventQueue()
        self._active_proc: Optional[Process] = None
        #: total events processed by :meth:`step` (perf-suite telemetry)
        self.events_processed = 0
        # optional per-dispatch probe (repro.obs); None keeps step() lean
        self._observer: Optional[Any] = None

    # -- observability -------------------------------------------------------

    def attach_observer(self, observer: Any) -> None:
        """Install an ``on_event(sim, event, t)`` probe called per dispatch.

        One observer at a time; used by :mod:`repro.obs` for kernel
        event-mix profiling and event-level tracing.
        """
        if self._observer is not None and self._observer is not observer:
            raise SimulationError("an observer is already attached")
        self._observer = observer

    def detach_observer(self) -> None:
        """Remove the observer installed by :meth:`attach_observer`."""
        self._observer = None

    # -- event construction ------------------------------------------------

    def event(self) -> Event:
        """A fresh untriggered event; complete with succeed()/fail()."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event that fires ``delay`` simulated seconds from now."""
        return Timeout(self, delay, value)

    def process(self, gen: ProcessGen, name: str = "") -> Process:
        """Start a process from generator ``gen``; returns the joinable handle."""
        return Process(self, gen, name=name)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Event firing when any of ``events`` fires."""
        return AnyOf(self, list(events))

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Event firing when all of ``events`` have fired."""
        return AllOf(self, list(events))

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently executing, if any."""
        return self._active_proc

    # -- scheduling ---------------------------------------------------------

    def _schedule(self, event: Event, delay: float = 0.0,
                  priority: int = NORMAL) -> None:
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        self._queue.push(event, self.now + delay, priority)

    def reschedule(self, event: Event, delay: float) -> None:
        """Move a queued event to fire ``delay`` seconds from now, ordered
        as if scheduled just now (re-arms a timer instead of leaving a
        superseded one to fire for nothing).

        Raises :class:`SimulationError` for an event that is not queued:
        never scheduled, or already processed.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        if event._queue_seq is None or event.callbacks is None:
            raise SimulationError(f"cannot reschedule {event!r}: not queued")
        self._queue.move(event, self.now + delay, NORMAL)

    def peek(self) -> float:
        """Time of the next event, or ``inf`` if the queue is empty."""
        return self._queue.peek()

    def step(self) -> None:
        """Process exactly one event."""
        try:
            t, event = self._queue.pop()
        except IndexError:
            raise SimulationError("step() on empty event queue") from None
        self.now = t
        self.events_processed += 1
        obs = self._observer
        if obs is not None:
            obs.on_event(self, event, t)
        event._run_callbacks()
        if event.ok is False and not event.defused:
            # an unhandled failure: surface it instead of dropping it
            raise event._value

    def run(self, until: Optional[float] = None,
            max_events: Optional[int] = None) -> float:
        """Run until the queue drains, ``until`` is reached, or ``max_events``.

        Returns the simulation time when the loop stopped.  When ``until``
        is given the clock is advanced to exactly ``until`` even if the last
        event fired earlier.
        """
        if until is not None and until < self.now:
            raise SimulationError(f"until={until} precedes now={self.now}")
        n = 0
        while self._queue:
            t = self.peek()
            if until is not None and t > until:
                self.now = until
                return self.now
            self.step()
            n += 1
            if max_events is not None and n >= max_events:
                return self.now
        if until is not None:
            self.now = until
        return self.now

    def run_until_done(self, event: Event) -> Any:
        """Run until ``event`` triggers; returns its value (raises if failed).

        Handy at the top of experiments: drive the sim until a root process
        completes without caring about background housekeeping processes.
        """
        while not event.triggered:
            if not self._queue:
                raise SimulationError(
                    "event queue drained before the awaited event triggered")
            self.step()
        if event.ok:
            return event.value
        event.defused = True
        raise event.value


class Alarm:
    """One moved wake-up timer that calls ``fire()`` when it goes off.

    :meth:`set` moves a pending wake-up with :meth:`Simulator.reschedule`
    instead of leaving it to fire for nothing.  One process called
    ``name`` (observers attribute dispatches by it) waits on the timeout
    for a busy period; ``fire`` may re-arm from inside.
    """

    def __init__(self, sim: Simulator, fire: Callable[[], None],
                 name: str) -> None:
        self.sim, self.fire, self.name = sim, fire, name
        self._wake: Optional[Timeout] = None
        self._proc: Optional[Process] = None

    def set(self, delay: float) -> None:
        """Wake ``delay`` seconds from now, clamped up to a representable
        step so a sub-ulp residual cannot stall the clock."""
        delay = max(delay, 4.0 * math.ulp(max(abs(self.sim.now), 1.0)))
        if self._wake is not None:
            self.sim.reschedule(self._wake, delay)
        else:
            self._wake = self.sim.timeout(delay)
            if self._proc is None or not self._proc.is_alive:
                self._proc = self.sim.process(self._loop(), name=self.name)

    def _loop(self) -> ProcessGen:
        while self._wake is not None:
            yield self._wake
            self._wake = None
            self.fire()
