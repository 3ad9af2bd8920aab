"""End-to-end benchmark of jobs on the simulated cluster.

Usage (from the repository root)::

    python3 perfbench/run.py --workload shuffle_sort --seed 1 \\
        --seconds 35 --trace 0

One process, one client, one job in flight (a closed loop), in-process
dataflow backend.  Set-up draws ``INPUT_SETS`` input sets from
``--seed``, builds their plain-Python references and runs a warm-up job;
it does this three times and reports the median.  Then jobs run back to
back for ``--seconds``, cycling through the input sets so that one
seed's quirks weigh less on the medians.  Each job builds a fresh
simulator and cluster and runs to completion; that span is timed, the
check of its output is not.

Job times are reported in reference seconds (unit ``ref_s``).  A shared
host's speed drifts by a third or more over minutes, far more than any
bound a regression check could use.  So with tracing off each job is
bracketed by runs of a fixed pure-stdlib calibration kernel
(``calibrate``, which calls nothing from ``repro``), and its wall is
scaled by ``REF_KERNEL_S`` / the mean wall of those two kernel runs
(``ref_walls``): a reference second is a second on a machine that runs
the kernel in ``REF_KERNEL_S``.  A change to the program moves job
walls and leaves the kernel alone.  The raw walls are printed on the
report lines.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced jobs on the same input set and reports the
per-layer split of the traced ones (see ``spans.py``); the span log is
written to ``perfbench/out/spans-<workload>.npz``.  Human-readable lines
come first; the last line of standard output is one JSON object.
"""

from __future__ import annotations

import time

_T_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import heapq  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from typing import Any, Dict, List, Optional, Tuple  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
SETUP_REPS = 3
INPUT_SETS = 8
#: Nominal wall of one ``calibrate()``: a job whose wall equals the
#: kernel's wall takes ``REF_KERNEL_S`` reference seconds.
REF_KERNEL_S = 0.03

Metrics = Dict[str, Tuple[float, str]]


def ensure_src() -> None:
    """Import ``repro`` from this checkout's ``src`` and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise FileNotFoundError(f"no repro package under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def make_inputs(workload, seed: int) -> List[Dict[str, Any]]:
    """The ``INPUT_SETS`` input sets of one seed."""
    rng = random.Random(seed)
    return [workload.setup(rng.randrange(2 ** 31))
            for _ in range(INPUT_SETS)]


class Runner:
    """Runs and checks the jobs of one workload on its input sets."""

    def __init__(self, workload, inputs: List[Dict[str, Any]]) -> None:
        self.wl = workload
        self.inputs = inputs
        # per input set: (sim_s, events, counters) of its first job
        self.fingerprints: Dict[int, Tuple] = {}
        self.problems: List[str] = []

    def job(self, index: int = 0, tracer=None,
            job_id: int = 0) -> Tuple[float, bool]:
        """Run one job on input set ``index``; returns (wall s, ok)."""
        inputs = self.inputs[index]
        gc.collect()
        sims = []

        def on_sim(sim) -> None:
            sims.append(sim)
            sim.attach_observer(tracer)

        out, problems = None, []
        t0 = time.perf_counter()
        try:
            if tracer is None:
                out = self.wl.run(inputs, None)
            else:
                with tracer.patched(), tracer.job(job_id):
                    out = self.wl.run(inputs, on_sim)
        except Exception as exc:  # a job that raises counts as failed
            problems.append(f"raised {type(exc).__name__}: {exc}")
        finally:
            wall = time.perf_counter() - t0
            for sim in sims:
                sim.detach_observer()
        if out is not None:
            problems += self.wl.check(inputs, out)
            problems += self._determinism(index, out)
        if problems and len(self.problems) < 10:
            self.problems.extend(problems)
        return wall, not problems

    def _determinism(self, index: int, out) -> List[str]:
        fp = (out.sim_s, out.events, out.counters)
        first = self.fingerprints.setdefault(index, fp)
        if fp != first:
            return [f"input set {index}: job differs from the first: sim_s "
                    f"{out.sim_s!r} vs {first[0]!r}, events {out.events} "
                    f"vs {first[1]}"]
        return []

    def counter_mean(self, name: str) -> float:
        """A program counter, averaged over the input sets (0 when the
        workload does not use the counter's layer)."""
        fps = self.fingerprints.values()
        return sum(fp[2].get(name, 0) for fp in fps) / len(fps)


def calibrate() -> float:
    """Run the fixed calibration kernel once; returns its wall seconds.

    Heap pushes and pops, dict updates and a tuple sort, the operations
    a simulator job spends its interpreter time on, on fixed inputs."""
    gc.collect()
    t0 = time.perf_counter()
    rng = random.Random(12345)
    heap: List[Tuple[float, int]] = []
    counts: Dict[int, int] = {}
    for i in range(12000):
        heapq.heappush(heap, (rng.random(), i))
        counts[i % 997] = counts.get(i % 997, 0) + i
    order = []
    while heap:
        order.append(heapq.heappop(heap)[1])
    sorted((x % 1013, x) for x in order)
    return time.perf_counter() - t0


def setup(workload, seed: int) -> Tuple[Runner, float, bool]:
    """Set up ``SETUP_REPS`` times; returns the runner, the median set-up
    seconds (imports excluded) and whether every warm-up job passed."""
    reps, runner, ok = [], None, True
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        inputs = make_inputs(workload, seed)
        if runner is None:
            runner = Runner(workload, inputs)
        elif inputs != runner.inputs:
            runner.problems.append("same seed gave different inputs")
            ok = False
        ok &= runner.job()[1]
        reps.append(time.perf_counter() - t0)
    return runner, statistics.median(reps), ok


def measure(runner: Runner, seconds: float, trace: bool) -> Dict[str, Any]:
    """The measured loop: untraced jobs each bracketed by ``calibrate()``
    runs, or untraced/traced pairs."""
    from spans import LayerTracer
    tracer = LayerTracer() if trace else None
    walls, traced_walls = [], []
    kernels = [] if trace else [calibrate()]
    failed = units = 0
    end = time.perf_counter() + seconds
    while True:
        index = len(walls) % len(runner.inputs)
        wall, ok = runner.job(index)
        walls.append(wall)
        failed += not ok
        units += runner.inputs[index]["units"] if ok else 0
        if tracer is None:
            kernels.append(calibrate())
        else:
            wall, ok = runner.job(index, tracer, len(traced_walls))
            traced_walls.append(wall)
            failed += not ok
        if time.perf_counter() >= end:
            break
    return {"walls": walls, "traced_walls": traced_walls, "kernels": kernels,
            "failed": failed, "units": units, "tracer": tracer,
            "attempted": len(walls) + len(traced_walls)}


def _p90(values: List[float]) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def raw_walls(res: Dict[str, Any]) -> Metrics:
    """The unscaled job walls and kernel walls (report lines only)."""
    walls = res["walls"]
    return {
        "job_wall_s.p50": (statistics.median(walls), "s"),
        "job_wall_s.p90": (_p90(walls), "s"),
        "records_per_s": (res["units"] / sum(walls), "records/s"),
        "calibrate_s.p50": (statistics.median(res["kernels"]), "s"),
    }


def ref_walls(walls: List[float], kernels: List[float]) -> List[float]:
    """Job walls in reference seconds.  ``kernels[i]`` and
    ``kernels[i + 1]`` are the kernel runs just before and just after job
    ``i``; the job is scaled by their mean, since the host's speed can
    change within seconds."""
    return [wall * REF_KERNEL_S / ((kernels[i] + kernels[i + 1]) / 2)
            for i, wall in enumerate(walls)]


def end_to_end(res: Dict[str, Any], setup_s: float) -> Metrics:
    ref = ref_walls(res["walls"], res["kernels"])
    return {
        "job_ref_s.p50": (statistics.median(ref), "ref_s"),
        "job_ref_s.p90": (_p90(ref), "ref_s"),
        "records_per_ref_s": (res["units"] / sum(ref), "records/ref_s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MiB"),
    }


def per_layer(res: Dict[str, Any], runner: Runner, span_path: str) \
        -> Tuple[Metrics, List[str]]:
    """Per-job layer metrics of the traced jobs, and any problems with
    the span log (unclosed or overlapping spans, or self times that do
    not add up to the traced wall)."""
    from spans import self_times
    tracer = res["tracer"]
    tracer.write(span_path)
    try:
        by_job, walls = self_times(tracer.spans())
    except ValueError as exc:
        return {}, [str(exc)]
    problems = [f"traced job {job}: self times do not add up"
                for job, layers in by_job.items()
                if abs(sum(layers.values()) - walls[job]) > 1e-6]
    n = len(by_job)

    def mean(layer: str) -> float:
        return sum(layers[layer] for layers in by_job.values()) / n

    def count(name: str, unit: str = "count") -> Tuple[float, str]:
        return runner.counter_mean(name), unit

    solves = tracer.rate_solves / n
    events = [fp[1] for fp in runner.fingerprints.values()]
    return {
        "simcore.events": (sum(events) / len(events), "count"),
        "simcore.self_s": (mean("simcore"), "s"),
        "simcore.queue_s": (mean("simcore.queue"), "s"),
        "net.self_s": (mean("net"), "s"),
        "net.rate_solve_s": (mean("net.rate_solve"), "s"),
        "net.route_s": (mean("net.route"), "s"),
        "net.transfers": count("net.transfers"),
        "net.rate_solves": (solves, "count"),
        "net.solves_per_transfer": (
            solves / runner.counter_mean("net.transfers"), "ratio"),
        "net.waker_useful_frac": (
            tracer.waker_useful / max(tracer.waker_dispatches, 1), "ratio"),
        "cluster.self_s": (mean("cluster"), "s"),
        "storage.dfs.self_s": (mean("storage.dfs"), "s"),
        "storage.rs_s": (mean("storage.rs"), "s"),
        "storage.integrity_s": (mean("storage.integrity"), "s"),
        "storage.integrity_bytes": (tracer.integrity_bytes / n, "bytes"),
        "storage.degraded_reads": count("storage.degraded_reads"),
        "storage.repair_bytes": count("storage.repair_bytes", "bytes"),
        "dataflow.engine.self_s": (mean("dataflow.engine"), "s"),
        "dataflow.operator_s": (mean("dataflow.operator"), "s"),
        "dataflow.shuffle_write_s": (mean("dataflow.shuffle_write"), "s"),
        "dataflow.tasks": count("dataflow.tasks"),
        "dataflow.failed_attempts": count("dataflow.failed_attempts"),
        "dataflow.shuffle_bytes": count("dataflow.shuffle_bytes", "bytes"),
        "dataflow.fused_segments": count("dataflow.fused_segments"),
        "trace.other_s": (mean("job"), "s"),
        "trace.job_wall_s": (sum(walls.values()) / n, "s"),
        "trace.overhead": (statistics.median(res["traced_walls"])
                           / statistics.median(res["walls"]) - 1.0,
                           "ratio"),
    }, problems


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        ensure_src()
    except FileNotFoundError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    import jobs
    import_s = time.perf_counter() - _T_START
    if args.workload not in jobs.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(jobs.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = jobs.WORKLOADS[args.workload]

    runner, setup_s, setup_ok = setup(wl, args.seed)
    res = measure(runner, args.seconds, bool(args.trace))
    problems, raw = [], {}
    if args.trace:
        out_dir = os.path.join(HERE, "out")
        os.makedirs(out_dir, exist_ok=True)
        metrics, problems = per_layer(
            res, runner, os.path.join(out_dir, f"spans-{wl.name}.npz"))
    else:
        metrics = end_to_end(res, import_s + setup_s)
        raw = raw_walls(res)

    n_untraced = len(res["walls"])
    print(f"workload={wl.name} seed={args.seed} trace={args.trace} "
          f"jobs={res['attempted']} (untraced samples {n_untraced}) "
          f"failed={res['failed']} "
          f"failed_frac={res['failed'] / res['attempted']:.4g} ratio")
    for index, (sim_s, events, _) in sorted(runner.fingerprints.items()):
        print(f"  input set {index}: sim_s {sim_s!r} s, "
              f"simcore.events {events}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} {value:.6g} {unit}")
    for name, (value, unit) in raw.items():
        print(f"  raw {name} {value:.6g} {unit}")
    for p in runner.problems + problems:
        print(f"  PROBLEM: {p}")
    print(json.dumps({
        "correct": setup_ok and res["failed"] == 0 and not problems,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
