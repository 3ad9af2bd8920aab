"""Processor-sharing fluid resource."""

import pytest

from repro.cluster import FluidResource
from repro.simcore import Process, Simulator


def test_single_job_rate():
    sim = Simulator()
    f = FluidResource(sim, capacity=100.0)
    ev = f.submit(200.0)
    sim.run()
    assert ev.value == pytest.approx(2.0)


def test_equal_sharing():
    sim = Simulator()
    f = FluidResource(sim, capacity=100.0)
    a = f.submit(100.0)
    b = f.submit(100.0)
    sim.run()
    assert a.value == pytest.approx(2.0)
    assert b.value == pytest.approx(2.0)


def test_shorter_job_leaves_earlier_then_speedup():
    sim = Simulator()
    f = FluidResource(sim, capacity=100.0)
    short = f.submit(50.0)    # with sharing: 1s
    long = f.submit(150.0)    # 1s shared (50 done) + 1s alone (100) = 2s
    sim.run()
    assert short.value == pytest.approx(1.0)
    assert long.value == pytest.approx(2.0)


def test_weighted_sharing():
    sim = Simulator()
    f = FluidResource(sim, capacity=90.0)
    heavy = f.submit(120.0, weight=2.0)   # rate 60 -> 2s
    light = f.submit(60.0, weight=1.0)    # rate 30 -> 2s
    sim.run()
    assert heavy.value == pytest.approx(2.0)
    assert light.value == pytest.approx(2.0)


def test_late_arrival():
    sim = Simulator()
    f = FluidResource(sim, capacity=100.0)
    a = f.submit(100.0)
    out = {}

    def later(sim):
        yield sim.timeout(0.5)
        b = f.submit(100.0)
        dur = yield b
        out["b"] = (sim.now, dur)
    sim.process(later(sim))
    sim.run()
    # a: 0.5 alone (50) + 1.0 shared (50) = 1.5s
    assert a.value == pytest.approx(1.5)
    assert out["b"][0] == pytest.approx(2.0)


def test_zero_work_completes():
    sim = Simulator()
    f = FluidResource(sim, capacity=10.0)
    ev = f.submit(0.0)
    sim.run()
    assert ev.triggered and ev.value == 0.0


def test_capacity_change_mid_job():
    sim = Simulator()
    f = FluidResource(sim, capacity=100.0)
    ev = f.submit(100.0)

    def slower(sim):
        yield sim.timeout(0.5)
        f.set_capacity(50.0)
    sim.process(slower(sim))
    sim.run()
    # 0.5s at 100 (50 done) + 1.0s at 50 = 1.5s
    assert ev.value == pytest.approx(1.5)


def test_total_work_accounting():
    sim = Simulator()
    f = FluidResource(sim, capacity=10.0)
    f.submit(30.0)
    f.submit(20.0)
    sim.run()
    assert f.total_work == pytest.approx(50.0)
    assert f.active_jobs == 0


def test_invalid_args():
    sim = Simulator()
    with pytest.raises(ValueError):
        FluidResource(sim, 0.0)
    f = FluidResource(sim, 1.0)
    with pytest.raises(ValueError):
        f.submit(-1.0)
    with pytest.raises(ValueError):
        f.submit(1.0, weight=0.0)
    with pytest.raises(ValueError):
        f.set_capacity(-5)


def test_tiny_residuals_terminate():
    """Regression: sub-ulp residual work must not stall the clock."""
    sim = Simulator(start_time=5.0)
    f = FluidResource(sim, capacity=200e6)
    evs = [f.submit(200e6 / 3 + 1e-7) for _ in range(3)]
    sim.run(max_events=100_000)
    assert all(e.triggered for e in evs)


class _WakerDispatches:
    """Kernel observer counting dispatches that resume the fluid waker."""

    def __init__(self):
        self.count = 0

    def on_event(self, sim, event, t):
        for cb in event.callbacks or ():
            owner = getattr(cb, "__self__", None)
            if isinstance(owner, Process) and owner.name == "fluid-waker":
                self.count += 1


def test_one_waker_is_moved_not_respawned():
    sim = Simulator()
    f = FluidResource(sim, capacity=4.0)
    dispatches = _WakerDispatches()
    sim.attach_observer(dispatches)
    evs = []

    def arrivals(sim):
        # three staggered arrivals in one busy period, one more after it
        for at in (0.0, 0.5, 0.75, 10.0):
            yield sim.timeout(at - sim.now)
            evs.append(f.submit(4.0))
    sim.process(arrivals(sim))
    sim.run()
    ends = {round(ev.value + start, 9)
            for ev, start in zip(evs, (0.0, 0.5, 0.75, 10.0))}
    assert len(ends) == 4
    # per busy period the waker's start, then one wake-up per completion
    # instant; every arrival moves the pending wake-up instead
    assert dispatches.count == 2 + len(ends)
