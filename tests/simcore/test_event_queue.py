"""The kernel's event queue: a ``heapq`` list with tombstoned moves.

A differential test drives :class:`Simulator` and the indexed-heap
reference in ``reference_kernel.py`` with the same random schedule /
reschedule / step / peek / run(until=) sequences and requires the same
dispatch order, clock and live queue length after every operation.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import SimulationError
from repro.simcore import Simulator
from repro.simcore.kernel import NORMAL, URGENT

from .reference_kernel import ReferenceSimulator

# few distinct delays, so many entries tie on time (and on priority)
delays = st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.5, 3.0])
ops = st.lists(st.one_of(
    st.tuples(st.just("schedule"), delays, st.sampled_from([NORMAL, URGENT])),
    st.tuples(st.just("reschedule"), st.integers(0, 63), delays),
    st.tuples(st.just("step")),
    st.tuples(st.just("peek")),
    st.tuples(st.just("run"), delays),
), max_size=60)


class Driver:
    """One simulator plus the log of which labelled event fired when."""

    def __init__(self, sim):
        self.sim = sim
        self.log = []
        self.queued = {}     # label -> event scheduled and not yet fired
        self.n = 0

    def schedule(self, delay, priority):
        ev = self.sim.event()
        ev._ok, ev._value = True, self.n
        ev.callbacks.append(self._fired)
        self.sim._schedule(ev, delay, priority)
        self.queued[self.n] = ev
        self.n += 1

    def _fired(self, ev):
        del self.queued[ev.value]
        self.log.append((ev.value, self.sim.now))

    def apply(self, op):
        """Apply ``op``; returns what it reports (for peek)."""
        sim, kind = self.sim, op[0]
        if kind == "schedule":
            self.schedule(*op[1:])
        elif kind == "reschedule" and self.queued:
            labels = sorted(self.queued)
            sim.reschedule(self.queued[labels[op[1] % len(labels)]], op[2])
        elif kind == "step" and sim._queue:
            sim.step()
        elif kind == "peek":
            return sim.peek()
        elif kind == "run":
            sim.run(until=sim.now + op[1])
        return None

    def state(self):
        return self.log, self.sim.now, len(self.sim._queue)


@given(ops)
@settings(max_examples=400, deadline=None)
def test_queue_matches_indexed_heap_reference(sequence):
    got, want = Driver(Simulator()), Driver(ReferenceSimulator())
    for op in sequence:
        assert got.apply(op) == want.apply(op), op
        assert got.state() == want.state(), op
        got.sim._queue.check_invariants()
    got.sim.run()
    want.sim.run()
    assert got.state() == want.state()
    got.sim._queue.check_invariants()


@pytest.mark.parametrize("make", [Simulator, ReferenceSimulator])
def test_run_until_stops_before_a_tombstoned_head(make):
    d = Driver(make())
    d.schedule(1.0, NORMAL)
    d.schedule(2.0, NORMAL)
    d.sim.reschedule(d.queued[0], 5.0)     # the t=1.0 entry is superseded
    assert d.sim.run(until=1.5) == 1.5
    assert d.state() == ([], 1.5, 2)
    assert d.sim.peek() == 2.0
    d.sim.run()
    assert d.state() == ([(1, 2.0), (0, 5.0)], 5.0, 0)


class TestRescheduleRejectsEventsNotQueued:
    def test_processed_event(self):
        sim = Simulator()
        wake = sim.timeout(1.0)
        sim.run()
        with pytest.raises(SimulationError, match="not queued"):
            sim.reschedule(wake, 1.0)
        assert len(sim._queue) == 0 and sim.run() == 1.0
        assert sim.events_processed == 1

    def test_never_scheduled_event(self):
        sim = Simulator()
        pending = sim.event()
        with pytest.raises(SimulationError, match="not queued"):
            sim.reschedule(pending, 1.0)
        assert len(sim._queue) == 0
        pending.succeed()
        sim.run()
        assert sim.events_processed == 1


class TestCheckInvariants:
    @staticmethod
    def _queue():
        sim = Simulator()
        for delay in (3.0, 1.0, 2.0, 0.5, 4.0):
            sim.timeout(delay)
        moved = sim.timeout(2.5)
        sim.reschedule(moved, 0.1)
        sim._queue.check_invariants()
        return sim._queue

    def test_corrupted_heap_order_is_caught(self):
        q = self._queue()
        q.heap[0], q.heap[-1] = q.heap[-1], q.heap[0]
        with pytest.raises(AssertionError, match="heap order"):
            q.check_invariants()

    def test_dangling_tombstone_is_caught(self):
        q = self._queue()
        q.dead.add(max(entry[2] for entry in q.heap) + 1)
        with pytest.raises(AssertionError, match="dangling"):
            q.check_invariants()

    def test_superseded_entry_left_live_is_caught(self):
        q = self._queue()
        q.dead.clear()
        with pytest.raises(AssertionError, match="entry"):
            q.check_invariants()
