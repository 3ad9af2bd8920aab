"""The perf suite's one A/B loop, its median ratio, and its noise retry."""

import time

import pytest

from repro.bench import perfsuite
from repro.bench.perfsuite import best_trial, interleaved_ab, median_ratio


def _nothing():
    return None


def _same(out):
    return out


class TestInterleavedAB:
    def test_leg_order_rotates_each_rep(self):
        calls = []

        def run(leg):
            calls.append(leg)
            return (lambda: None), (lambda out: "same")

        interleaved_ab(("a", "b", "c"), run, reps=3)
        assert calls == ["a", "b", "c", "b", "c", "a", "c", "a", "b"]

    def test_times_the_job_alone(self):
        def run(leg):
            time.sleep(0.02)                    # setup: not timed
            job = (lambda: time.sleep(0.02)) if leg == "slow" else _nothing
            return job, _same

        times = interleaved_ab(("slow", "fast"), run, reps=2)
        assert len(times["slow"]) == len(times["fast"]) == 2
        assert min(times["slow"]) >= 0.02
        assert max(times["fast"]) < 0.02

    def test_gc_collects_between_setup_and_job(self, monkeypatch):
        log = []
        monkeypatch.setattr(perfsuite.gc, "collect",
                            lambda: log.append("gc"))

        def run(leg):
            log.append(f"setup {leg}")
            return (lambda: log.append(f"job {leg}")), _same

        interleaved_ab(("on", "off"), run, reps=2)
        assert log == ["setup on", "gc", "job on",
                       "setup off", "gc", "job off",
                       "setup off", "gc", "job off",
                       "setup on", "gc", "job on"]

    def test_digest_mismatch_names_the_leg(self):
        def run(leg):
            out = [1, 2] if leg != "fast" else [2, 1]
            return (lambda: out), _same

        with pytest.raises(AssertionError, match="leg 'fast' computed"):
            interleaved_ab(("slow", "fast"), run, reps=1)

    def test_digest_maps_the_job_result(self):
        # results differ in order only; a sorting digest makes them agree
        def run(leg):
            out = [1, 2] if leg == "a" else [2, 1]
            return (lambda: out), sorted

        times = interleaved_ab(("a", "b"), run, reps=2)
        assert set(times) == {"a", "b"}

    def test_mismatch_in_a_later_rep_is_caught(self):
        outs = iter([7, 7, 8, 7])       # call order: a b | b a
        with pytest.raises(AssertionError, match="leg 'b' computed"):
            interleaved_ab(("a", "b"),
                           lambda leg: ((lambda: next(outs)), _same), 2)


class TestMedianRatio:
    def test_odd_reps(self):
        times = {"x": [2.0, 9.0, 3.0], "base": [1.0, 1.0, 1.0]}
        assert median_ratio(times, "x", "base") == 3.0

    def test_even_reps_average_the_middle_pair(self):
        times = {"x": [2.0, 4.0, 6.0, 100.0], "base": [1.0, 1.0, 1.0, 2.0]}
        assert median_ratio(times, "x", "base") == 5.0

    def test_ratios_pair_within_a_rep(self):
        # per-rep pairing, not a ratio of minima (which would read 1.0)
        times = {"x": [2.0, 4.0, 6.0], "base": [1.0, 2.0, 3.0]}
        assert median_ratio(times, "x", "base") == 2.0


class TestBestTrial:
    def _trials(self, values):
        calls = []

        def trial():
            calls.append(len(calls))
            return {"overhead": values[len(calls) - 1], "n": len(calls)}

        return trial, calls

    def test_stops_at_first_trial_under_guard(self):
        trial, calls = self._trials([0.2, 0.01, 0.0])
        best = best_trial(trial, "overhead", attempts=3, guard=0.05)
        assert best == {"overhead": 0.01, "n": 2}
        assert len(calls) == 2

    def test_returns_best_when_none_under_guard(self):
        trial, calls = self._trials([0.3, 0.1, 0.2])
        best = best_trial(trial, "overhead", attempts=3, guard=0.05)
        assert best == {"overhead": 0.1, "n": 2}
        assert len(calls) == 3

    def test_runs_at_least_once(self):
        trial, calls = self._trials([0.5])
        assert best_trial(trial, "overhead", attempts=0, guard=0.05)["n"] == 1


class TestChaosOverhead:
    def test_three_workloads_on_the_shared_loop(self, monkeypatch):
        legs = []
        real = perfsuite.interleaved_ab

        def spy(names, run, reps):
            legs.append(tuple(names))
            return real(names, run, reps)

        monkeypatch.setattr(perfsuite, "interleaved_ab", spy)
        r = perfsuite.measure_overhead("chaos_overhead", 0.01, reps=2)
        # one trial is three A/Bs; a noisy trial is retried whole
        assert set(legs) == {("bare", "attached")}
        assert len(legs) in (3, 6, 9)
        assert set(r) == {"wordcount", "stream", "microbatch",
                          "chaos_worst_ratio"}
        assert r["chaos_worst_ratio"] == max(
            r[w]["attached_ratio"] for w in ("wordcount", "stream",
                                             "microbatch"))
        assert all(r[w]["bare_seconds"] > 0
                   for w in ("wordcount", "stream", "microbatch"))
