"""P0 (perf) — wall-clock throughput of the engine's shuffle hot paths.

Unlike the T*/F*/A* benchmarks (which report *simulated* metrics), P0
measures the engine's own execution efficiency in real time: shuffle-write
records/sec on a fixed basket (wordcount, terasort, pagerank, skewed
combine), end-to-end job wall seconds, and DES-kernel event counts (all
single-leg: the cross-commit end-to-end record is ``perfbench/``).  It
A/Bs the execution optimizers (fusion, columnar SQL, vectorized joins
and windows) against their reference paths, the warm process-pool
backend against in-process execution at 1/2/``--workers`` workers, and
what disabled observability, idle resilience policies, the checksummed
data plane and an empty chaos fault plan cost; it also runs the
sustained-throughput search and the multi-tenant serving gateway over
three tenant mixes plus a chaos sweep, and, with ``--profile``, prints
the kernel event mix and per-operator self-time profile from
:mod:`repro.obs.profile`.  Every bound the report is held to is one row
of ``repro.bench.perfsuite.GUARDS``.  Writes ``BENCH_wallclock.json``
next to the repo root so every PR leaves a comparable perf trajectory.

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

from repro.bench.perfsuite import (check_guards, profile_end_to_end,
                                   run_suite, write_report)

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
    """Hold the report to every row of ``perfsuite.GUARDS``, printing
    each reading, then check what must hold exactly: the optimizer legs
    and the adaptive join agree, the streaming knees exist and conserve
    records, and every serving tenant conserves its requests and some
    complete work.  CI runs this bench at scale 0.5, where the reduced
    scale floors are the live ones.
    """
    summary = payload["summary"]
    for line in check_guards(summary, payload["scale"]):
        print(f"guard {line}")
    assert summary["join_adaptive_consistent"], \
        "adaptive execution changed the join result"
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
    chaos = serving["chaos_sweep"]
    assert chaos["all_conserved"], (
        "chaos sweep broke per-tenant conservation: "
        + ", ".join(s for s, r in chaos["runs"].items()
                    if not r["conserved"]))


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
    assert set(payload["integrity_overhead"]) == \
        {"wordcount", "spill", "integrity_checksum_overhead"}
    assert set(payload["chaos_overhead"]) == \
        {"wordcount", "stream", "microbatch", "chaos_worst_ratio"}
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
    enforce_guards(run_p0(scale=opts.scale, profile=opts.profile,
                          backend=opts.backend, workers=opts.workers))
    print("guards OK")
