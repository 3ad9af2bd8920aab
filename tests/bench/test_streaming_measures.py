"""Smoke coverage for the schema-8 streaming measurements.

Tiny scales only — the full-scale numbers and guards live in
``benchmarks/bench_p0_wallclock.py``; here we pin the report shape, the
byte-identity invariant, and that the binary search lands a sane knee.
"""

from repro.bench.perfsuite import (
    SCHEMA_VERSION,
    measure_sustained_throughput,
    measure_windowed_aggregation,
)


def test_schema_bumped_for_streaming():
    assert SCHEMA_VERSION >= 8


class TestWindowedAggregation:
    def test_report_shape_and_identity(self):
        r = measure_windowed_aggregation(scale=0.05, reps=1)
        assert r["identical"]
        assert r["records"] > 0
        assert r["speedup"] > 0
        assert r["baseline_seconds"] > 0 and r["current_seconds"] > 0
        # the fast path must actually engage on this eligible stream
        assert r["fast_batches"] > 0
        assert r["fallback_batches"] == 0


class TestSustainedThroughput:
    def test_knee_found_and_conserved(self):
        r = measure_sustained_throughput(scale=0.05,
                                         scenarios=("uniform",),
                                         iterations=4)
        sec = r["scenarios"]["uniform"]
        assert 0 < sec["sustained_rate"] <= 2 * r["capacity_estimate"]
        assert sec["probes"]
        # knee is the highest *feasible* probe
        feas = [p["rate"] for p in sec["probes"] if p["feasible"]]
        assert sec["sustained_rate"] == max(feas)
        ov = sec["overload"]
        assert ov["offered_rate"] > sec["sustained_rate"]
        for leg in ("off", "on", "on_admission"):
            assert ov[leg]["conserved"], leg
        assert ov["on_admission"]["shed"] > 0
