"""Event primitives for the discrete-event kernel.

An :class:`Event` is a one-shot occurrence with a value.  Processes (see
:mod:`repro.simcore.kernel`) *yield* events to wait for them.  Composite
events (:class:`AnyOf`, :class:`AllOf`) wait on several at once.

Events move through three states: *pending* (created), *triggered*
(scheduled onto the event queue with a value), and *processed* (callbacks
ran).  Failing an event propagates an exception into every waiting process
— unhandled failures surface at ``Simulator.run`` rather than being dropped.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from .kernel import Simulator

__all__ = ["Event", "Timeout", "AnyOf", "AllOf", "Interrupt", "PENDING"]


class _PendingType:
    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover
        return "<PENDING>"


#: Sentinel for "no value yet".
PENDING = _PendingType()


class Interrupt(Exception):
    """Raised inside a process that another process interrupted.

    ``cause`` carries arbitrary context from the interrupter.
    """

    @property
    def cause(self) -> Any:
        """The object passed to ``Process.interrupt``."""
        return self.args[0] if self.args else None


class Event:
    """A one-shot occurrence in simulated time.

    Create via ``sim.event()``; complete with :meth:`succeed` or
    :meth:`fail`.  Callbacks receive the event itself.
    """

    #: ``seq`` of the event's live entry in the kernel's event queue
    _queue_seq: Optional[int] = None

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = PENDING
        self._ok: Optional[bool] = None
        #: set True once a waiting process consumed (or will consume) a failure
        self.defused = False

    @property
    def triggered(self) -> bool:
        """True once the event has a value and is on the queue."""
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self.callbacks is None

    @property
    def ok(self) -> Optional[bool]:
        """True if succeeded, False if failed, None while pending."""
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value (or exception, when failed)."""
        if self._value is PENDING:
            raise AttributeError("value not yet available")
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._value is not PENDING:
            raise RuntimeError(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        self.sim._schedule(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event as failed; waiters see ``exception`` raised."""
        if not isinstance(exception, BaseException):
            raise TypeError("fail() needs an exception instance")
        if self._value is not PENDING:
            raise RuntimeError(f"{self!r} already triggered")
        self._ok = False
        self._value = exception
        self.sim._schedule(self)
        return self

    def _run_callbacks(self) -> None:
        callbacks, self.callbacks = self.callbacks, None
        for cb in callbacks:
            cb(self)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "processed" if self.processed else (
            "triggered" if self.triggered else "pending")
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires ``delay`` seconds after creation."""

    def __init__(self, sim: "Simulator", delay: float, value: Any = None) -> None:
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        super().__init__(sim)
        self.delay = delay
        self._ok = True
        self._value = value
        sim._schedule(self, delay=delay)


class _Condition(Event):
    """Common machinery for AnyOf/AllOf."""

    def __init__(self, sim: "Simulator", events: List[Event]) -> None:
        super().__init__(sim)
        self.events = list(events)
        for ev in self.events:
            if ev.sim is not sim:
                raise ValueError("all events must belong to one simulator")
        self._n_done = 0
        if not self.events:
            self.succeed({})
            return
        for ev in self.events:
            if ev.processed:
                self._on_event(ev)
            else:
                ev.callbacks.append(self._on_event)

    def _collect(self) -> dict:
        return {
            i: ev.value
            for i, ev in enumerate(self.events)
            if ev.triggered and ev.ok
        }

    def _on_event(self, ev: Event) -> None:
        if self.triggered:
            if ev.ok is False:
                # someone must consume the failure; the condition already
                # fired so we defuse to avoid a spurious crash.
                ev.defused = True
            return
        if ev.ok is False:
            ev.defused = True
            self.fail(ev.value)
            return
        self._n_done += 1
        if self._satisfied():
            self.succeed(self._collect())

    def _satisfied(self) -> bool:  # pragma: no cover - abstract
        raise NotImplementedError


class AnyOf(_Condition):
    """Fires when *any* constituent event fires (value: dict index→value)."""

    def _satisfied(self) -> bool:
        return self._n_done >= 1


class AllOf(_Condition):
    """Fires when *all* constituent events have fired."""

    def _satisfied(self) -> bool:
        return self._n_done >= len(self.events)
