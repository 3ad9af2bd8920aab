"""Deterministic discrete-event simulation kernel (process-based)."""

from .events import AllOf, AnyOf, Event, Interrupt, Timeout
from .kernel import NORMAL, URGENT, Alarm, Process, Simulator
from .resources import Container, Request, Resource, Store

__all__ = [
    "Simulator", "Process", "Alarm", "Event", "Timeout", "AnyOf", "AllOf",
    "Interrupt", "Resource", "Request", "Container", "Store",
    "NORMAL", "URGENT",
]
