"""Recovery-equivalence oracles, swept over seeds across all five layers.

These are the acceptance checks of the chaos harness: for every layer and
seed, the faulted run must be byte-equal to the fault-free run, re-running
the same plan must reproduce the identical injection trace, and the
layer's conservation invariants must hold.
"""

import pytest

from repro.chaos import (
    LAYERS,
    FaultEvent,
    FaultPlan,
    check_dataflow,
    check_event_streaming,
    check_streaming,
    run_all,
    sweep,
)

SEEDS = range(6)


@pytest.mark.parametrize("layer", sorted(LAYERS))
@pytest.mark.parametrize("seed", SEEDS)
def test_layer_oracle(layer, seed):
    report = LAYERS[layer](seed)
    assert report.ok, f"{layer} seed={seed}: {report.failures}"
    assert report.failures == []
    assert report.checks
    if layer == "integrity":
        # every seed's corruption plan must land, not just the sum over
        # seeds: a seed that injects nothing makes its oracle vacuous
        assert report.injections > 0, f"seed={seed} injected nothing"


def test_run_all_covers_every_layer():
    reports = run_all(0)
    assert sorted(r.layer for r in reports) == sorted(LAYERS)


def test_sweep_flattens_reports():
    reports = sweep([1, 2], layers=["streaming", "autoscale"])
    assert len(reports) == 4
    assert all(r.ok for r in reports)


def test_faults_actually_fire_somewhere():
    # the oracles are vacuous if the calibrated plans never inject; across
    # a few seeds every layer must see at least one real injection
    by_layer = {}
    for r in sweep(SEEDS):
        by_layer[r.layer] = by_layer.get(r.layer, 0) + r.injections
    assert all(n > 0 for n in by_layer.values()), by_layer


def test_dataflow_oracle_accepts_custom_plan():
    plan = FaultPlan.scripted([
        FaultEvent(0.02, "task_crash", magnitude=2.0),
        FaultEvent(0.05, "node_fail", "h0_0", duration=0.1),
    ], seed=0)
    report = check_dataflow(0, plan)
    assert report.ok, report.failures


def test_streaming_oracle_trailing_crash_plan():
    # a crash far beyond the last event exercises the trailing-crash drain
    plan = FaultPlan.scripted([
        FaultEvent(40.0, "operator_crash"),
        FaultEvent(500.0, "operator_crash"),
    ], seed=0)
    report = check_streaming(0, plan)
    assert report.ok, report.failures
    assert report.injections == 2


def test_event_streaming_oracle_accepts_custom_plan():
    # dense crashes, including one past the last arrival: the emission
    # log must still be byte-equal to the crash-free run
    plan = FaultPlan.scripted([
        FaultEvent(5.0, "operator_crash"),
        FaultEvent(5.5, "operator_crash"),
        FaultEvent(30.0, "operator_crash"),
        FaultEvent(200.0, "operator_crash"),
    ], seed=0)
    report = check_event_streaming(0, plan)
    assert report.ok, report.failures
    assert report.injections == 4
    assert any("exactly_once" in c for c in report.checks)
    assert any("per_window_conservation" in c for c in report.checks)
