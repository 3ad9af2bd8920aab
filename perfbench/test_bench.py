"""Self-tests of the benchmark harness.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

run.ensure_src()
import jobs  # noqa: E402
import spans  # noqa: E402

NAMES = sorted(jobs.WORKLOADS)


@pytest.fixture(scope="module")
def inputs():
    return {name: run.make_inputs(jobs.WORKLOADS[name], 1) for name in NAMES}


@pytest.mark.parametrize("name", NAMES)
def test_small_pass_has_no_failures(name, inputs):
    runner = run.Runner(jobs.WORKLOADS[name], inputs[name])
    res = run.measure(runner, seconds=0, trace=True)
    assert res["attempted"] == 2 and res["failed"] == 0, runner.problems
    assert res["units"] == inputs[name][0]["units"]


@pytest.mark.parametrize("name", NAMES)
def test_wrong_reference_is_counted_as_failed(name, inputs):
    wrong = dict(inputs[name][0])
    ref = wrong["reference"]
    if isinstance(ref, dict):
        key = next(iter(ref))
        wrong["reference"] = {**ref, key: ref[key] + 1}
    else:
        wrong["reference"] = ref[1:] + ref[:1]
    runner = run.Runner(jobs.WORKLOADS[name], [wrong])
    res = run.measure(runner, seconds=0, trace=False)
    assert res["failed"] / res["attempted"] > 0


def test_traced_run_restores_every_patched_function(inputs, tmp_path):
    tracer = spans.LayerTracer()
    before = [(owner, attr, getattr(owner, attr))
              for owner, attr, _ in tracer._patches()]
    runner = run.Runner(jobs.WORKLOADS["dfs_mixed"], inputs["dfs_mixed"])
    with pytest.raises(RuntimeError):
        with tracer.patched():
            raise RuntimeError("the wrappers come off on errors too")
    wall, ok = runner.job(0, tracer, 0)
    assert ok, runner.problems
    for owner, attr, orig in before:
        assert getattr(owner, attr) is orig, f"{owner}.{attr} still wrapped"
    by_job, walls = spans.self_times(tracer.spans())
    assert abs(sum(by_job[0].values()) - walls[0]) < 1e-6
    assert by_job[0]["storage.rs"] > 0 and by_job[0]["net"] > 0
    tracer.write(str(tmp_path / "spans.npz"))


def test_other_seed_changes_inputs_but_not_checks(inputs):
    for name in NAMES:
        wl = jobs.WORKLOADS[name]
        other = run.make_inputs(wl, 2)
        assert other != inputs[name], name
        assert run.make_inputs(wl, 2) == other, name
        runner = run.Runner(wl, other)
        assert runner.job()[1], (name, runner.problems)


def test_untraced_jobs_are_bracketed_by_kernel_runs(inputs):
    runner = run.Runner(jobs.WORKLOADS["dfs_mixed"], inputs["dfs_mixed"])
    res = run.measure(runner, seconds=0, trace=False)
    assert len(res["kernels"]) == len(res["walls"]) + 1
    assert all(k > 0 for k in res["kernels"])
    ref = run.ref_walls([0.2, 0.3], [0.01, 0.03, 0.03])
    assert ref == pytest.approx([0.2 * run.REF_KERNEL_S / 0.02,
                                 0.3 * run.REF_KERNEL_S / 0.03])
