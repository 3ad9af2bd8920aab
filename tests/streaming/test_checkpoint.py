"""Stateful streaming with checkpoint/replay recovery."""

import operator

import pytest

from repro.common.errors import StreamingError
from repro.streaming import CheckpointConfig, run_stateful_stream


def make_events(n=200, keys=4):
    return [(float(i), i % keys, 1) for i in range(n)]


def crash_free_state(events):
    state = {}
    for _t, k, v in sorted(events):
        state[k] = state.get(k, 0) + v
    return state


AGG = operator.add
INIT = lambda v: v


class TestNoFailure:
    def test_state_matches_reference(self):
        events = make_events()
        run = run_stateful_stream(events, AGG, INIT,
                                  CheckpointConfig(interval=10))
        assert run.state == crash_free_state(events)
        assert run.processed_events == len(events)
        assert not run.recoveries

    def test_checkpoint_count(self):
        events = make_events(100)           # event times 0..99
        run = run_stateful_stream(events, AGG, INIT,
                                  CheckpointConfig(interval=25))
        assert run.checkpoints_taken == 3   # t=25, 50, 75
        assert run.checkpoint_overhead == pytest.approx(3 * 0.2)

    def test_shorter_interval_higher_overhead(self):
        events = make_events(400)
        short = run_stateful_stream(events, AGG, INIT,
                                    CheckpointConfig(interval=5))
        long = run_stateful_stream(events, AGG, INIT,
                                   CheckpointConfig(interval=100))
        assert short.checkpoint_overhead > 5 * long.checkpoint_overhead


class TestRecovery:
    def test_state_exact_after_crash(self):
        events = make_events(300)
        run = run_stateful_stream(events, AGG, INIT,
                                  CheckpointConfig(interval=50),
                                  crash_times=[123.5])
        assert run.state == crash_free_state(events)
        assert len(run.recoveries) == 1
        r = run.recoveries[0]
        assert r.checkpoint_offset == 100.0
        assert r.replayed_events == 24      # events 100..123

    def test_multiple_crashes(self):
        events = make_events(300)
        run = run_stateful_stream(events, AGG, INIT,
                                  CheckpointConfig(interval=30),
                                  crash_times=[50.5, 200.5])
        assert run.state == crash_free_state(events)
        assert len(run.recoveries) == 2

    def test_crash_before_first_checkpoint_replays_from_zero(self):
        events = make_events(100)
        run = run_stateful_stream(events, AGG, INIT,
                                  CheckpointConfig(interval=1000),
                                  crash_times=[60.5])
        r = run.recoveries[0]
        assert r.checkpoint_offset == 0.0
        assert r.replayed_events == 61
        assert run.state == crash_free_state(events)

    def test_recovery_time_tradeoff(self):
        """The A4 tradeoff: longer intervals -> cheaper steady state but
        costlier recovery."""
        events = make_events(1000)
        crash = [799.5]
        short = run_stateful_stream(events, AGG, INIT,
                                    CheckpointConfig(interval=10),
                                    crash_times=crash)
        long = run_stateful_stream(events, AGG, INIT,
                                   CheckpointConfig(interval=300),
                                   crash_times=crash)
        assert short.checkpoint_overhead > long.checkpoint_overhead
        assert short.total_recovery_time < long.total_recovery_time
        assert short.state == long.state == crash_free_state(events)

    def test_unsorted_events_accepted(self):
        events = [(3.0, "a", 1), (1.0, "a", 1), (2.0, "b", 5)]
        run = run_stateful_stream(events, AGG, INIT,
                                  CheckpointConfig(interval=10))
        assert run.state == {"a": 2, "b": 5}


class TestTrailingCrash:
    """Crashes after the last event must still be recovered and accounted."""

    def test_crash_after_last_event_recorded(self):
        events = make_events(100)           # event times 0..99
        run = run_stateful_stream(events, AGG, INIT,
                                  CheckpointConfig(interval=25),
                                  crash_times=[150.0])
        assert len(run.recoveries) == 1
        r = run.recoveries[0]
        assert r.checkpoint_offset == 75.0
        assert r.replayed_events == 25      # events 75..99
        assert run.total_recovery_time > 0
        assert run.state == crash_free_state(events)

    def test_crash_just_past_last_event(self):
        events = make_events(100)
        run = run_stateful_stream(events, AGG, INIT,
                                  CheckpointConfig(interval=25),
                                  crash_times=[99.5])
        assert len(run.recoveries) == 1
        assert run.state == crash_free_state(events)

    def test_mixed_mid_and_trailing_crashes(self):
        events = make_events(60)
        run = run_stateful_stream(events, AGG, INIT,
                                  CheckpointConfig(interval=20),
                                  crash_times=[30.5, 70.0, 200.0])
        assert len(run.recoveries) == 3
        assert run.state == crash_free_state(events)


class TestMutatingAggregator:
    """Snapshots must be deep copies: in-place aggs must not corrupt them."""

    @staticmethod
    def _agg(acc, v):
        acc.append(v)
        return acc

    @staticmethod
    def _init(v):
        return [v]

    def test_in_place_agg_state_survives_crash(self):
        events = [(float(i), i % 3, i) for i in range(100)]
        free = run_stateful_stream(events, self._agg, self._init,
                                   CheckpointConfig(interval=10))
        crashed = run_stateful_stream(events, self._agg, self._init,
                                      CheckpointConfig(interval=10),
                                      crash_times=[55.5])
        assert crashed.state == free.state

    def test_in_place_agg_repeated_crashes_same_checkpoint(self):
        # two crashes that both roll back to the same snapshot: the first
        # replay must not have mutated what the second replay starts from
        events = [(float(i), i % 2, i) for i in range(40)]
        free = run_stateful_stream(events, self._agg, self._init,
                                   CheckpointConfig(interval=15))
        crashed = run_stateful_stream(events, self._agg, self._init,
                                      CheckpointConfig(interval=15),
                                      crash_times=[20.5, 25.5])
        assert len(crashed.recoveries) == 2
        assert crashed.state == free.state


class TestValidation:
    def test_bad_config(self):
        with pytest.raises(StreamingError):
            CheckpointConfig(interval=0)
