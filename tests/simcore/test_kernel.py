"""DES kernel: clock, processes, joins, interrupts, determinism."""

import math

import pytest

from repro.common.errors import SimulationError
from repro.simcore import Alarm, Interrupt, Simulator


def test_timeout_advances_clock():
    sim = Simulator()

    def p(sim):
        yield sim.timeout(2.5)
    sim.process(p(sim))
    assert sim.run() == 2.5


def test_events_fire_in_time_order():
    sim = Simulator()
    log = []

    def p(sim, name, delay):
        yield sim.timeout(delay)
        log.append(name)
    sim.process(p(sim, "late", 3))
    sim.process(p(sim, "early", 1))
    sim.process(p(sim, "mid", 2))
    sim.run()
    assert log == ["early", "mid", "late"]


def test_same_time_fifo_by_creation():
    sim = Simulator()
    log = []

    def p(sim, name):
        yield sim.timeout(1.0)
        log.append(name)
    for i in range(5):
        sim.process(p(sim, i))
    sim.run()
    assert log == [0, 1, 2, 3, 4]


def test_process_return_value():
    sim = Simulator()

    def p(sim):
        yield sim.timeout(1)
        return "answer"
    proc = sim.process(p(sim))
    sim.run()
    assert proc.value == "answer"


def test_join_process():
    sim = Simulator()

    def child(sim):
        yield sim.timeout(2)
        return 7

    def parent(sim):
        c = sim.process(child(sim))
        v = yield c
        return v * 2
    par = sim.process(parent(sim))
    sim.run()
    assert par.value == 14


def test_all_of_waits_for_slowest():
    sim = Simulator()

    def p(sim, d):
        yield sim.timeout(d)
        return d
    procs = [sim.process(p(sim, d)) for d in (1, 5, 3)]

    def waiter(sim):
        res = yield sim.all_of(procs)
        return (sim.now, sorted(res.values()))
    w = sim.process(waiter(sim))
    sim.run()
    assert w.value == (5, [1, 3, 5])


def test_any_of_fires_on_first():
    sim = Simulator()

    def p(sim, d):
        yield sim.timeout(d)
        return d

    def waiter(sim):
        res = yield sim.any_of([sim.process(p(sim, 4)), sim.process(p(sim, 1))])
        return (sim.now, res)
    w = sim.process(waiter(sim))
    sim.run()
    assert w.value[0] == 1
    assert 1 in w.value[1].values()


def test_interrupt_delivers_cause():
    sim = Simulator()
    seen = []

    def victim(sim):
        try:
            yield sim.timeout(100)
        except Interrupt as i:
            seen.append((sim.now, i.cause))

    def attacker(sim, v):
        yield sim.timeout(2)
        v.interrupt("reason")
    v = sim.process(victim(sim))
    sim.process(attacker(sim, v))
    sim.run()
    assert seen == [(2.0, "reason")]


def test_interrupt_finished_process_raises():
    sim = Simulator()

    def quick(sim):
        yield sim.timeout(1)
    p = sim.process(quick(sim))
    sim.run()
    with pytest.raises(RuntimeError):
        p.interrupt()


def test_interrupted_process_can_continue():
    sim = Simulator()

    def victim(sim):
        try:
            yield sim.timeout(100)
        except Interrupt:
            pass
        yield sim.timeout(5)
        return sim.now

    def attacker(sim, v):
        yield sim.timeout(1)
        v.interrupt()
    v = sim.process(victim(sim))
    sim.process(attacker(sim, v))
    sim.run()
    assert v.value == 6.0


def test_manual_event_succeed():
    sim = Simulator()
    ev = sim.event()

    def waiter(sim):
        v = yield ev
        return v

    def firer(sim):
        yield sim.timeout(3)
        ev.succeed(99)
    w = sim.process(waiter(sim))
    sim.process(firer(sim))
    sim.run()
    assert w.value == 99 and sim.now == 3.0


def test_failed_event_raises_in_waiter():
    sim = Simulator()
    ev = sim.event()
    caught = []

    def waiter(sim):
        try:
            yield ev
        except ValueError as e:
            caught.append(str(e))

    def firer(sim):
        yield sim.timeout(1)
        ev.fail(ValueError("boom"))
    sim.process(waiter(sim))
    sim.process(firer(sim))
    sim.run()
    assert caught == ["boom"]


def test_unhandled_failure_surfaces_at_run():
    sim = Simulator()

    def bad(sim):
        yield sim.timeout(1)
        raise RuntimeError("unhandled")
    sim.process(bad(sim))
    with pytest.raises(RuntimeError, match="unhandled"):
        sim.run()


def test_run_until_time():
    sim = Simulator()

    def p(sim):
        yield sim.timeout(10)
    sim.process(p(sim))
    assert sim.run(until=4.0) == 4.0
    assert sim.now == 4.0
    sim.run()
    assert sim.now == 10.0


def test_run_until_done_returns_value():
    sim = Simulator()

    def p(sim):
        yield sim.timeout(2)
        return "v"
    proc = sim.process(p(sim))
    assert sim.run_until_done(proc) == "v"


def test_run_until_done_raises_on_failure():
    sim = Simulator()

    def p(sim):
        yield sim.timeout(1)
        raise KeyError("gone")
    proc = sim.process(p(sim))
    with pytest.raises(KeyError):
        sim.run_until_done(proc)


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.timeout(-1)


def test_until_in_past_rejected():
    sim = Simulator()

    def p(sim):
        yield sim.timeout(5)
    sim.process(p(sim))
    sim.run()
    with pytest.raises(SimulationError):
        sim.run(until=1.0)


def test_yielding_non_event_is_error():
    sim = Simulator()

    def bad(sim):
        yield 42
    sim.process(bad(sim))
    with pytest.raises(SimulationError):
        sim.run()


def test_yield_already_processed_event():
    sim = Simulator()

    def p(sim):
        t = sim.timeout(1)
        yield t
        # yield the same (already processed) event again: resumes promptly
        yield t
        return sim.now
    proc = sim.process(p(sim))
    sim.run()
    assert proc.value == 1.0


def test_zero_timeout_runs_in_order():
    sim = Simulator()
    log = []

    def p(sim, n):
        yield sim.timeout(0)
        log.append(n)
    sim.process(p(sim, 1))
    sim.process(p(sim, 2))
    sim.run()
    assert log == [1, 2]


def test_determinism_across_runs():
    def build():
        sim = Simulator()
        log = []

        def p(sim, n):
            for i in range(3):
                yield sim.timeout(0.5 * (n + 1))
                log.append((sim.now, n, i))
        for n in range(4):
            sim.process(p(sim, n))
        sim.run()
        return log
    assert build() == build()


def test_empty_condition_fires_immediately():
    sim = Simulator()

    def p(sim):
        res = yield sim.all_of([])
        return res
    proc = sim.process(p(sim))
    sim.run()
    assert proc.value == {}


def test_reschedule_moves_a_pending_timeout():
    sim = Simulator()
    log = []
    wake = sim.timeout(5.0)

    def sleeper(sim):
        yield wake
        log.append(("woke", sim.now))

    def other(sim, name):
        yield sim.timeout(2.0)
        log.append((name, sim.now))

    sim.process(sleeper(sim))
    sim.process(other(sim, "before"))
    sim.run(until=1.0)
    # 5.0 -> 2.0, ordered after "before" as if scheduled at 1.0
    sim.reschedule(wake, 1.0)
    sim.process(other(sim, "after"))
    sim.run()
    assert log == [("before", 2.0), ("woke", 2.0), ("after", 3.0)]


def test_reschedule_rejects_negative_delay():
    sim = Simulator()
    wake = sim.timeout(1.0)
    with pytest.raises(SimulationError):
        sim.reschedule(wake, -1.0)


class TestAlarm:
    @staticmethod
    def _alarm(sim, fire=None):
        fired = []

        def record():
            fired.append((sim.now, sim.active_process))
            if fire is not None:
                fire()
        return Alarm(sim, record, "alarm"), fired

    def test_second_set_moves_the_pending_wake_up(self):
        sim = Simulator()
        alarm, fired = self._alarm(sim)
        alarm.set(5.0)
        alarm.set(2.0)
        assert sim.run() == 2.0
        assert [t for t, _ in fired] == [2.0]
        # the process's start, one wake-up and the process's own end
        assert sim.events_processed == 3

    def test_rearming_from_fire_keeps_the_process(self):
        sim = Simulator()
        alarm, fired = self._alarm(
            sim, lambda: alarm.set(1.0) if len(fired) < 3 else None)
        alarm.set(1.0)
        sim.run()
        assert [t for t, _ in fired] == [1.0, 2.0, 3.0]
        procs = {p for _, p in fired}
        assert len(procs) == 1
        (proc,) = procs
        assert proc.name == "alarm" and not proc.is_alive

    def test_arming_after_a_busy_period_starts_one_new_process(self):
        sim = Simulator()
        alarm, fired = self._alarm(sim)
        alarm.set(1.0)
        sim.run()
        first = fired[0][1]
        assert not first.is_alive
        alarm.set(3.0)
        alarm.set(1.0)
        sim.run()
        assert [t for t, _ in fired] == [1.0, 2.0]
        assert fired[1][1] is not first
        # per busy period: the process's start, one wake-up and its end
        assert sim.events_processed == 6

    def test_sub_ulp_delay_is_clamped(self):
        sim = Simulator(start_time=1e6)
        alarm, fired = self._alarm(sim)
        alarm.set(1e-20)
        sim.run()
        assert fired and sim.now > 1e6
        assert sim.now == 1e6 + 4.0 * math.ulp(1e6)
