"""P0 (perf) — wall-clock throughput of the engine's shuffle hot paths.

Unlike the T*/F*/A* benchmarks (which report *simulated* metrics), P0
measures the engine's own execution efficiency in real time: shuffle-write
records/sec on a fixed basket (wordcount, terasort, pagerank, skewed
combine), end-to-end job wall seconds, and DES-kernel event counts (all
single-leg: the cross-commit end-to-end record is ``perfbench/``).  It
A/Bs the execution optimizers (fusion, columnar SQL, vectorized joins
and windows) against their reference paths, and also measures the
observability layer's overhead (the fully traced leg upper-bounds the
disabled cost; the <5% guard is enforced here), the warm process-pool
backend against in-process execution at 1/2/``--workers`` workers (the
``pool_speedup`` summary field; >= 2x on the CPU-bound headline basket
at 4 workers when >= 4 cores are present), the multi-tenant serving
gateway over three tenant mixes plus a chaos sweep (per-tenant p99 /
goodput-per-dollar / Jain fairness, exact conservation on every seed),
the checksummed data plane A/B'd on/off (the <5% integrity-overhead
guard), an empty chaos fault plan attached vs bare (the < 1.25x chaos
guard), and, with ``--profile``, prints the kernel event mix and
per-operator self-time profile from :mod:`repro.obs.profile`.  Writes
``BENCH_wallclock.json`` next to the repo root so every PR leaves a
comparable perf trajectory.

Run standalone:  ``PYTHONPATH=src python benchmarks/bench_p0_wallclock.py``
                 ``... bench_p0_wallclock.py 0.25 --profile``
                 ``... bench_p0_wallclock.py --backend pool --workers 4``
                 ``... bench_p0_wallclock.py --backend inprocess``  (skip
                 the pool sweep entirely)
"""

import argparse
import os
import sys

sys.path.insert(0, __file__.rsplit("/", 1)[0])
from _common import one_round

from repro.bench.perfsuite import profile_end_to_end, run_suite, write_report

REPORT = os.path.join(os.path.dirname(__file__), os.pardir,
                      "BENCH_wallclock.json")


def run_p0(scale: float = 1.0, report_path: str = REPORT,
           profile: bool = False, backend: str = "pool",
           workers: int = 4) -> dict:
    payload = run_suite(scale=scale, verbose=True,
                        pool_workers=workers if backend == "pool" else None)
    if profile:
        report, text = profile_end_to_end("wordcount", scale)
        payload["profile"] = report
        print("\n--- profile: wordcount end-to-end ---")
        print(text)
    write_report(payload, report_path)
    print(f"wrote {os.path.normpath(report_path)}")
    return payload


def enforce_guards(payload: dict) -> None:
    """Regression guards for the PR-3..PR-6 execution optimizers.

    Narrow-chain fusion must stay >= 1.2x at every scale (it is a
    per-record win, so smoke scales see it too); the columnar SQL engine
    must reach 1.5x at the default scale (>= 1.1x on smoke scales, where
    fixed per-query costs dominate).  The vectorized hash join (PR 7)
    must reach 3x over the row-interpreter join at the default scale
    (>= 1.2x on smoke scales) and its adaptive-execution leg must have
    produced the identical result set.  The observability layer must cost
    < 5% when disabled — guarded via the fully *traced* leg, whose
    instrumentation work is a strict superset of the disabled path's
    (the same module-global loads and ``None`` checks, plus all the
    recording), so the disabled cost is strictly below the guarded
    number.  Attaching an empty chaos fault plan must cost < 1.25x on
    each of its three workloads (median of per-rep attached/bare
    ratios, always measured at scale 1.0).

    The process-pool guard is conditional on the machine being able to
    show a win at all: it enforces only when the sweep reached >= 4
    workers on >= 4 cores and the scale is >= 0.25 (below that the jobs
    are milliseconds and dispatch overhead dominates any backend).  The
    floor is 2.0x at the default scale and 1.3x at smoke scales.  On
    runners with < 4 cores the measurement still runs and legs must
    agree byte-for-byte, but the report marks ``insufficient_cores``
    and nulls the headline ``pool_speedup`` — the guard then *prints*
    the skip instead of silently gating on a number a 1-core box cannot
    produce.

    PR 8 adds the streaming guards: the vectorized windowed aggregator
    must be byte-identical to the scalar oracle and >= 5x faster at the
    default scale (>= 1.5x on smoke scales, where per-batch fixed costs
    dominate); the sustained-throughput section must report a positive
    knee for every scenario with conservation intact in every overload
    leg, and the backpressured interior must stay at least 2x tighter
    than the unbounded one on the uniform overload leg.

    PR 9 adds the multi-tenant serving guards: every tenant mix must
    complete work with exact per-tenant conservation (``submitted ==
    rejected + completed + failed``, zero inflight after drain), the
    balanced mix of statistically identical tenants must score Jain
    fairness >= 0.9, goodput-per-dollar must be positive everywhere,
    and the chaos sweep must hold conservation on every seed while
    degrading p99 gracefully (within 10x of fault-free).

    These are the only copies of these bounds: CI runs this bench at
    scale 0.5, where every reduced-scale floor above, the 1.3x pool floor
    included, is live.
    """
    summary = payload["summary"]
    fusion = summary["fusion_speedup"]
    assert fusion >= 1.2, f"fusion speedup regressed: {fusion:.2f}x < 1.2x"
    sql = summary["sql_speedup"]
    floor = 1.5 if payload["scale"] >= 1.0 else 1.1
    assert sql >= floor, f"SQL speedup regressed: {sql:.2f}x < {floor}x"
    join = summary["join_speedup"]
    join_floor = 3.0 if payload["scale"] >= 1.0 else 1.2
    assert join >= join_floor, \
        f"join speedup regressed: {join:.2f}x < {join_floor}x"
    assert summary["join_adaptive_consistent"], \
        "adaptive execution changed the join result"
    obs = summary["obs_enabled_overhead"]
    assert obs < 0.05, \
        f"observability overhead bound {100 * obs:.1f}% >= 5%"
    resil = summary["resilience_armed_overhead"]
    assert resil < 0.05, \
        f"armed-but-idle resilience overhead {100 * resil:.1f}% >= 5%"
    integ = summary["integrity_checksum_overhead"]
    assert integ < 0.05, \
        f"checksummed data plane overhead {100 * integ:.1f}% >= 5%"
    chaos = summary["chaos_worst_ratio"]
    assert chaos < 1.25, \
        f"empty chaos fault plan costs {chaos:.2f}x (budget 1.25x)"
    pool = payload.get("pool_backend")
    if pool is not None:
        if pool["insufficient_cores"]:
            assert summary["pool_speedup"] is None
            print(f"pool guard SKIPPED: {pool['cpu_count']} cores < 4 "
                  f"(measured {pool['measured_speedup']:.2f}x, "
                  f"informational only)")
        elif (pool["workers"] >= 4 and pool["cpu_count"] >= 4
                and payload["scale"] >= 0.25):
            speedup = summary["pool_speedup"]
            pool_floor = 2.0 if payload["scale"] >= 1.0 else 1.3
            assert speedup >= pool_floor, (
                f"pool backend speedup regressed: {speedup:.2f}x "
                f"< {pool_floor}x at {pool['workers']} workers "
                f"({pool['cpu_count']} cores)")
    windowed = summary["windowed_speedup"]
    win_floor = 5.0 if payload["scale"] >= 1.0 else 1.5
    assert windowed >= win_floor, (
        f"windowed aggregation speedup regressed: {windowed:.2f}x "
        f"< {win_floor}x")
    assert payload["workloads"]["windowed_aggregation"]["identical"], \
        "vectorized windowed aggregation diverged from the scalar oracle"
    streaming = payload["sustained_throughput"]
    for scenario, sec in streaming["scenarios"].items():
        assert sec["sustained_rate"] > 0, \
            f"{scenario}: no sustainable rate under the p99 bound"
        for leg, res in sec["overload"].items():
            if leg == "offered_rate":
                continue
            assert res["conserved"], \
                f"{scenario}/{leg}: record conservation violated"
    uo = streaming["scenarios"]["uniform"]["overload"]
    assert uo["on"]["pipeline_p99"] * 2.0 <= uo["off"]["pipeline_p99"], (
        "backpressure no longer bounds the pipeline interior: "
        f"on {uo['on']['pipeline_p99']:.2f}s vs "
        f"off {uo['off']['pipeline_p99']:.2f}s")
    serving = payload["multi_tenant_serving"]
    for mix, sec in serving["mixes"].items():
        assert sec["conservation_ok"], f"{mix}: fleet conservation violated"
        assert sec["dollars"] > 0 and sec["goodput_per_dollar"] > 0, \
            f"{mix}: fleet ran for free or delivered nothing"
        for name, t in sec["tenants"].items():
            assert t["conservation_ok"] and t["inflight"] == 0, (
                f"{mix}/{name}: submitted {t['submitted']} != rejected "
                f"{t['rejected']} + completed {t['completed']} + failed "
                f"{t['failed']} (inflight {t['inflight']})")
        assert any(t["completed"] > 0 for t in sec["tenants"].values()), \
            f"{mix}: no tenant completed any work"
    balanced_jain = serving["mixes"]["balanced"]["jain_fairness"]
    assert balanced_jain >= 0.9, (
        f"identical tenants no longer treated fairly: "
        f"Jain {balanced_jain:.3f} < 0.9")
    chaos = serving["chaos_sweep"]
    assert chaos["all_conserved"], (
        "chaos sweep broke per-tenant conservation: "
        + ", ".join(s for s, r in chaos["runs"].items()
                    if not r["conserved"]))
    assert chaos["graceful"], (
        f"chaos p99 diverged: {chaos['max_p99_ratio_vs_clean']:.1f}x "
        f"fault-free (bound 10x)")


def test_p0(benchmark):
    payload = one_round(benchmark, lambda: run_p0(scale=0.25))
    summary = payload["summary"]
    assert summary["records_per_sec_current"] > 0
    assert set(payload["workloads"]) == {"wordcount", "terasort",
                                         "pagerank", "skewed_combine",
                                         "sql_analytics", "sql_join",
                                         "narrow_chain",
                                         "windowed_aggregation"}
    assert summary["wordcount_sim_events"] > 0
    assert payload["obs_overhead"]["traced_spans"] > 0
    assert payload["resilience_overhead"]["records"] > 0
    assert payload["integrity_overhead"]["spill_records"] > 0
    assert set(payload["chaos_overhead"]["workloads"]) == \
        {"wordcount", "stream", "microbatch"}
    # pool section present, legs agreed at every worker count
    pool = payload["pool_backend"]
    assert pool["workers"] == 4 and set(pool["sweep"]) == {"1", "2", "4"}
    assert summary["pool_speedup"] == pool["speedup"]
    if pool["insufficient_cores"]:
        assert pool["speedup"] is None and pool["measured_speedup"] > 0
    else:
        assert pool["speedup"] > 0
    # streaming sections present with all three scenarios
    assert set(payload["sustained_throughput"]["scenarios"]) == \
        {"uniform", "bursty", "skewed"}
    # serving section present with all three tenant mixes + chaos sweep
    serving = payload["multi_tenant_serving"]
    assert set(serving["mixes"]) == {"balanced", "heavy_hitter",
                                     "bursty_mixed"}
    assert serving["chaos_sweep"]["runs"]
    assert summary["serving_chaos_conserved"] is True
    enforce_guards(payload)
    opts = payload["meta"]["exec_options"]
    assert opts["fusion"] and opts["columnar"]


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("scale", nargs="?", type=float, default=1.0)
    ap.add_argument("--profile", action="store_true",
                    help="print the kernel event mix + operator profile")
    ap.add_argument("--backend", choices=("inprocess", "pool"),
                    default="pool",
                    help="'pool' (default) A/Bs the process-pool backend "
                         "against in-process; 'inprocess' skips the sweep")
    ap.add_argument("--workers", type=int, default=4,
                    help="top of the pool worker sweep (default 4)")
    opts = ap.parse_args()
    payload = run_p0(scale=opts.scale, profile=opts.profile,
                     backend=opts.backend, workers=opts.workers)
    enforce_guards(payload)
    pool_speedup = payload["summary"]["pool_speedup"]
    chaos = payload["multi_tenant_serving"]["chaos_sweep"]
    print("serving guards OK: balanced Jain {:.3f}, chaos conserved on "
          "{} seeds, worst p99 {:.1f}x fault-free".format(
              payload["multi_tenant_serving"]["mixes"]["balanced"]
              ["jain_fairness"],
              len(chaos["runs"]), chaos["max_p99_ratio_vs_clean"]))
    print("guards OK: fusion {:.2f}x, sql {:.2f}x, join {:.2f}x, "
          "windowed {:.2f}x, pool {}, obs overhead bound {:+.1f}%, "
          "idle-resilience overhead {:+.1f}%, "
          "integrity overhead {:+.1f}%".format(
              payload["summary"]["fusion_speedup"],
              payload["summary"]["sql_speedup"],
              payload["summary"]["join_speedup"],
              payload["summary"]["windowed_speedup"],
              f"{pool_speedup:.2f}x" if pool_speedup else "skipped",
              100 * payload["summary"]["obs_enabled_overhead"],
              100 * payload["summary"]["resilience_armed_overhead"],
              100 * payload["summary"]["integrity_checksum_overhead"]))
