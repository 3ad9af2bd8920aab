"""Sealed checkpoint snapshots: corruption fallback and accounting."""

import operator

import pytest

from repro.streaming import (
    CheckpointConfig,
    WindowAgg,
    WindowSpec,
    run_stateful_stream,
    run_windowed_stream,
)

AGG = operator.add
INIT = lambda v: v


def make_events(n=300, keys=4):
    return [(float(i), i % keys, 1) for i in range(n)]


def crash_free_state(events):
    state = {}
    for _t, k, v in sorted(events):
        state[k] = state.get(k, 0) + v
    return state


def counters(run):
    reg = run.registry
    return tuple(int(reg.value(f"integrity.{k}"))
                 for k in ("injected", "detected", "latent"))


class TestCorruptionFallback:
    def test_crash_falls_back_past_rotten_snapshot(self):
        events = make_events(300)
        clean = run_stateful_stream(events, AGG, INIT,
                                    CheckpointConfig(interval=50),
                                    crash_times=[123.5])
        # rot the newest snapshot (t=100) before the crash reads it:
        # recovery must verify, skip it, and restart from t=50
        run = run_stateful_stream(
            events, AGG, INIT,
            CheckpointConfig(interval=50),
            crash_times=[123.5], corrupt_times=[110.0])
        assert run.state == crash_free_state(events)
        assert run.state == clean.state
        (r,) = run.recoveries
        assert r.checkpoint_offset == 50.0      # one checkpoint earlier
        assert r.replayed_events == 74          # events 50..123
        assert counters(run) == (1, 1, 0)

    def test_latent_corruption_audited(self):
        # corruption with no subsequent crash is never *read*; the
        # end-of-run audit must still close the books
        events = make_events(200)
        run = run_stateful_stream(
            events, AGG, INIT,
            CheckpointConfig(interval=40),
            corrupt_times=[90.0])
        assert run.state == crash_free_state(events)
        assert not run.recoveries
        assert counters(run) == (1, 0, 1)

    def test_genesis_never_corrupted(self):
        # every snapshot rots, yet recovery terminates at the pristine
        # genesis and replays the whole stream
        events = make_events(120)
        run = run_stateful_stream(
            events, AGG, INIT,
            CheckpointConfig(interval=30),
            crash_times=[95.5],
            corrupt_times=[91.0, 92.0, 93.0, 94.0, 95.0])
        assert run.state == crash_free_state(events)
        (r,) = run.recoveries
        assert r.checkpoint_offset == 0.0
        assert r.replayed_events == 96
        injected, detected, latent = counters(run)
        assert injected == detected + latent
        assert detected == 3                    # t=90, 60, 30 read and killed

    def test_corrupt_before_any_checkpoint_is_noop(self):
        events = make_events(100)
        run = run_stateful_stream(
            events, AGG, INIT,
            CheckpointConfig(interval=40),
            corrupt_times=[5.0])                # only genesis exists: exempt
        assert run.state == crash_free_state(events)
        assert counters(run) == (0, 0, 0)

    def test_accounting_identity_holds(self):
        events = make_events(400)
        run = run_stateful_stream(
            events, AGG, INIT,
            CheckpointConfig(interval=25),
            crash_times=[120.5, 290.5],
            corrupt_times=[60.0, 110.0, 200.0, 285.0])
        assert run.state == crash_free_state(events)
        injected, detected, latent = counters(run)
        assert injected == 4
        assert injected == detected + latent


class TestWindowedCorruption:
    def test_exactly_once_emissions_despite_rot(self):
        events = [(float(i), float(i), i % 3, 1) for i in range(100)]
        clean = run_windowed_stream(
            events, WindowSpec.tumbling(2.0), WindowAgg.by_name("sum"),
            CheckpointConfig(interval=8))
        run = run_windowed_stream(
            events, WindowSpec.tumbling(2.0), WindowAgg.by_name("sum"),
            CheckpointConfig(interval=8),
            crash_times=[37.5, 70.5], corrupt_times=[35.0, 66.0])
        assert run.emissions == clean.emissions
        assert run.processed_events == clean.processed_events
        assert run.window_in == clean.window_in
        injected, detected, latent = counters(run)
        assert injected == 2
        assert injected == detected + latent


def _stateful(crash_times, corrupt_times):
    events = make_events(100)
    run = run_stateful_stream(events, AGG, INIT,
                              CheckpointConfig(interval=25),
                              crash_times=crash_times,
                              corrupt_times=corrupt_times)
    assert run.state == crash_free_state(events)
    return run


def _windowed(crash_times, corrupt_times):
    events = [(float(i), float(i), i % 3, 1) for i in range(100)]
    window, agg = WindowSpec.tumbling(2.0), WindowAgg.by_name("sum")
    clean = run_windowed_stream(events, window, agg,
                                CheckpointConfig(interval=25))
    run = run_windowed_stream(events, window, agg,
                              CheckpointConfig(interval=25),
                              crash_times=crash_times,
                              corrupt_times=corrupt_times)
    assert run.emissions == clean.emissions
    return run


@pytest.mark.parametrize("run", [_stateful, _windowed],
                         ids=["stateful", "windowed"])
@pytest.mark.parametrize("corrupt_at, rolled_back_to, replayed, books", [
    # a corruption sorts before a same-instant crash: the crash reads the
    # rotted t=50 snapshot, detects it and falls back to t=25
    (60.0, 25.0, 36, (1, 1, 0)),
    # half a second later the crash has already recovered from t=50, and
    # the rot it then leaves on that snapshot is only found by the audit
    (60.5, 50.0, 11, (1, 0, 1)),
])
def test_same_instant_corruption_precedes_crash(run, corrupt_at,
                                                rolled_back_to, replayed,
                                                books):
    result = run([60.0], [corrupt_at])
    (r,) = result.recoveries
    assert (r.checkpoint_offset, r.replayed_events) == \
        (rolled_back_to, replayed)
    assert counters(result) == books


class TestDeterminism:
    def test_same_plan_same_books(self):
        events = make_events(250)
        runs = [run_stateful_stream(
            events, AGG, INIT,
            CheckpointConfig(interval=20),
            crash_times=[77.5, 180.5], corrupt_times=[70.0, 170.0])
            for _ in range(2)]
        assert runs[0].state == runs[1].state
        assert counters(runs[0]) == counters(runs[1])
        assert [r.checkpoint_offset for r in runs[0].recoveries] == \
            [r.checkpoint_offset for r in runs[1].recoveries]
