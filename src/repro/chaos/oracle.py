"""Recovery-equivalence oracles: faulted runs must equal fault-free runs.

The differential-testing core of the chaos harness.  Each ``check_*``
function builds one layer's workload, runs it **fault-free** and **under a
fault plan** (twice), and asserts three families of properties:

1. **Recovery equivalence** — the faulted run's final answer is
   byte-equal (``pickle``) to the fault-free run's.  Crashes, stragglers,
   lost shuffle partitions and lost blocks may cost time, never
   correctness.
2. **Determinism** — two faulted runs from the same seed produce the
   identical injection trace and the identical result.  This is the
   mechanical check of the seed-determinism contract in
   :mod:`repro.chaos.plan`.
3. **Conservation** — layer-specific invariants: no record lost or
   double-counted, backlog/queue bookkeeping conserved, event-queue heap
   order and tombstone consistency
   (:meth:`~repro.simcore.kernel.EventQueue.check_invariants`) sampled
   while faults are in flight.

Use :func:`run_all` / :func:`sweep` to run every layer over one or many
seeds; each returns :class:`OracleReport` objects whose ``ok`` flag and
``failures`` list feed straight into property tests.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field
from operator import add
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from ..cloud.autoscale import ThresholdPolicy, simulate_autoscaling
from ..cluster import make_cluster
from ..common.errors import TaskFailedError
from ..dataflow import CostModel, DataflowContext, EngineConfig, SimEngine
from ..resilience import (
    AdmissionConfig,
    HedgePolicy,
    ResiliencePolicies,
    RetryPolicy,
)
from ..simcore.kernel import Simulator
from ..storage.dfs import DFSConfig, DistributedFS
from ..streaming.backpressure import PipelineConfig, run_event_pipeline
from ..streaming.checkpoint import (
    RECOVERY_FIXED_COST,
    CheckpointConfig,
    run_stateful_stream,
    run_windowed_stream,
)
from ..streaming.events import WindowAgg, WindowSpec, assign_tumbling
from ..streaming.microbatch import MicroBatchConfig, run_microbatch
from ..workloads.generators import event_stream
from .adapters import (
    ClusterChaos,
    DFSChaos,
    EngineChaos,
    InjectionTrace,
    burst_rate,
    burst_series,
    operator_crash_times,
    snapshot_corrupt_times,
)
from .plan import FaultEvent, FaultPlan

__all__ = ["OracleReport", "check_dataflow", "check_streaming",
           "check_microbatch", "check_event_streaming", "check_dfs",
           "check_autoscale", "check_resilience", "check_serve",
           "check_integrity", "LAYERS", "run_all", "sweep"]


@dataclass
class OracleReport:
    """Outcome of one layer's recovery-equivalence check."""

    layer: str
    seed: int
    plan: FaultPlan
    ok: bool = True
    checks: List[str] = field(default_factory=list)
    failures: List[str] = field(default_factory=list)
    injections: int = 0

    def expect(self, cond: bool, label: str) -> bool:
        """Record one assertion; flips ``ok`` on failure."""
        if cond:
            self.checks.append(label)
        else:
            self.ok = False
            self.failures.append(label)
        return bool(cond)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        mark = "OK" if self.ok else f"FAIL({', '.join(self.failures)})"
        return (f"<OracleReport {self.layer} seed={self.seed} "
                f"{len(self.checks)} checks, {self.injections} faults: {mark}>")


def _heap_monitor(sim: Simulator, report: OracleReport,
                  period: float = 0.5, samples: int = 20) -> None:
    """Sample the kernel's event-queue invariants while chaos is live.

    Bounded (``samples`` probes) so the monitor never keeps the queue
    alive after the workload drains.
    """
    def _mon():
        for _ in range(samples):
            yield sim.timeout(period)
            try:
                sim._queue.check_invariants()
            except AssertionError:
                report.expect(False, "heap_invariants")
                return
    sim.process(_mon(), name="chaos:heap-monitor")


def _bytes(obj) -> bytes:
    return pickle.dumps(obj, protocol=4)


# --------------------------------------------------------------------- dataflow

def _dataflow_words(seed: int, n: int = 3000) -> List[str]:
    rng = np.random.default_rng([seed, 101])
    vocab = [f"w{i:03d}" for i in range(40)]
    return [vocab[j] for j in rng.integers(0, len(vocab), size=n)]


#: Task retries of the oracle jobs that name no policy: eight retries.
_ORACLE_RETRY = ResiliencePolicies(retry=RetryPolicy(max_attempts=9))


def _run_dataflow(seed: int, plan: Optional[FaultPlan],
                  monitor: Optional[Callable[[Simulator], None]] = None,
                  policies: Optional[ResiliencePolicies] = None):
    sim = Simulator()
    cluster = make_cluster(sim, n_racks=2, nodes_per_rack=4)
    ctx = DataflowContext(default_parallelism=8)
    engine = SimEngine(cluster,
                       config=EngineConfig(
                           resilience=policies or _ORACLE_RETRY),
                       cost_model=CostModel(cpu_per_record=2e-4))
    words = _dataflow_words(seed)
    ds = ctx.parallelize(words, 8).map(lambda w: (w, 1)).reduce_by_key(add, 6)
    trace = InjectionTrace()
    if plan is not None:
        if monitor is not None:
            monitor(sim)
        ClusterChaos(cluster, plan, trace).start()
        EngineChaos(engine, plan, trace).start()
    res = sim.run_until_done(engine.collect(ds))
    account = (engine.integrity_detected, engine.integrity_latent_discarded,
               len(engine.audit_shuffle_integrity()))
    return sorted(res.value), trace, len(words), account


def check_dataflow(seed: int, plan: Optional[FaultPlan] = None) -> OracleReport:
    """Wordcount under node loss, stragglers, task crashes, lost shuffles."""
    if plan is None:
        # the fault-free job runs ~0.17 simulated seconds, so the renewal
        # horizon and rates are calibrated to land several faults while
        # tasks are actually in flight
        node_names = [f"h{r}_{i}" for r in range(2) for i in range(4)]
        plan = FaultPlan.renewal(
            seed, horizon=0.3,
            rates={"node_fail": 3.0, "slow_node": 6.0,
                   "task_crash": 15.0, "lost_shuffle": 10.0},
            targets=node_names, mean_duration=0.08)
    report = OracleReport("dataflow", seed, plan)
    monitor = lambda sim: _heap_monitor(sim, report, period=0.02)
    free, _t, n_records, _a = _run_dataflow(seed, None)
    faulted1, trace1, _, _a1 = _run_dataflow(seed, plan, monitor)
    faulted2, trace2, _, _a2 = _run_dataflow(seed, plan, monitor)
    report.injections = len(trace1)
    report.expect(_bytes(faulted1) == _bytes(free), "recovery_equivalence")
    report.expect(trace1.signature() == trace2.signature(),
                  "trace_determinism")
    report.expect(_bytes(faulted1) == _bytes(faulted2), "result_determinism")
    report.expect(sum(c for _w, c in faulted1) == n_records,
                  "record_conservation")
    return report


# --------------------------------------------------------------------- streaming

class _ListState:
    """A deliberately in-place-mutating aggregator (the satellite-2 trap)."""

    @staticmethod
    def agg(acc, v):
        acc.append(v)
        return acc

    @staticmethod
    def init(v):
        return [v]


def _stream_events(seed: int, n: int = 240, span: float = 120.0):
    rng = np.random.default_rng([seed, 202])
    times = np.sort(rng.uniform(0.0, span, size=n))
    keys = rng.integers(0, 12, size=n)
    vals = rng.integers(1, 100, size=n)
    return [(float(t), int(k), int(v))
            for t, k, v in zip(times, keys, vals)]


def check_streaming(seed: int, plan: Optional[FaultPlan] = None) -> OracleReport:
    """Checkpoint/replay under operator crashes (incl. trailing crashes)."""
    if plan is None:
        # horizon past the last event time so trailing crashes (the
        # satellite-1 bug) are exercised by construction
        plan = FaultPlan.renewal(seed, horizon=160.0,
                                 rates={"operator_crash": 0.03})
    report = OracleReport("streaming", seed, plan)
    events = _stream_events(seed)
    crashes = operator_crash_times(plan)
    report.injections = len(crashes)
    cfg = CheckpointConfig(interval=10.0)
    for label, agg, init in (("sum", add, lambda v: v),
                             ("mutating_list", _ListState.agg,
                              _ListState.init)):
        free = run_stateful_stream(events, agg, init, cfg)
        faulted1 = run_stateful_stream(events, agg, init, cfg,
                                       crash_times=crashes)
        faulted2 = run_stateful_stream(events, agg, init, cfg,
                                       crash_times=crashes)
        report.expect(_bytes(faulted1.state) == _bytes(free.state),
                      f"{label}:recovery_equivalence")
        report.expect(_bytes(faulted1.state) == _bytes(faulted2.state),
                      f"{label}:result_determinism")
        report.expect(len(faulted1.recoveries) == len(crashes),
                      f"{label}:all_crashes_recovered")
        report.expect(faulted1.processed_events == len(events),
                      f"{label}:record_conservation")
        report.expect(all(r.recovery_seconds >= RECOVERY_FIXED_COST
                          for r in faulted1.recoveries),
                      f"{label}:recovery_cost_accounted")
    return report


# --------------------------------------------------------------------- microbatch

def check_microbatch(seed: int, plan: Optional[FaultPlan] = None) -> OracleReport:
    """Micro-batch engine under load bursts and admission; idle windows."""
    if plan is None:
        plan = FaultPlan.renewal(seed, horizon=60.0,
                                 rates={"load_burst": 0.05},
                                 mean_duration=6.0)
    report = OracleReport("microbatch", seed, plan)
    report.injections = sum(1 for e in plan if e.kind == "load_burst")
    cfg = MicroBatchConfig(batch_interval=1.0, per_record_cost=2e-4,
                           parallelism=2,
                           admission=AdmissionConfig(rate=4000, burst=4000,
                                                     max_backlog=2))
    duration = 60.0

    def base_rate(t: float) -> float:
        # periodic idle windows exercise the empty-batch path (satellite 4)
        return 0.0 if int(t // 10) % 3 == 2 else 2000.0

    rate = burst_rate(base_rate, plan)
    r1 = run_microbatch(rate, cfg, duration)
    r2 = run_microbatch(rate, cfg, duration)
    offered = sum(int(max(0, round(rate(float(t)) * cfg.batch_interval)))
                  for t in np.arange(0.0, duration, cfg.batch_interval))
    report.expect(r1.processed_records + r1.shed_records == offered,
                  "record_conservation")
    report.expect(
        _bytes((r1.processed_records, r1.shed_records, r1.max_backlog,
                r1.batch_times, r1.latency.count))
        == _bytes((r2.processed_records, r2.shed_records, r2.max_backlog,
                   r2.batch_times, r2.latency.count)),
        "result_determinism")
    report.expect(all(bt > cfg.scheduling_overhead for bt in r1.batch_times),
                  "no_empty_batches")
    # latency is weighted by batch size: one latency observation per record
    report.expect(r1.latency.count == r1.processed_records,
                  "backlog_conservation")
    # typed-counter flow conservation over every offered record:
    # in == out + inflight + shed (inflight 0 at shutdown)
    reg = r1.registry
    report.expect(
        reg is not None
        and reg.value("stream.records_in") == offered
        and reg.value("stream.records_in")
        == reg.value("stream.records_out")
        + reg.value("stream.records_inflight")
        + reg.value("stream.records_shed")
        and reg.value("stream.records_inflight") == 0,
        "registry_flow_conservation")
    return report


# --------------------------------------------------------------- event streaming

def _windowed_events(seed: int, n: int = 400, span: float = 60.0):
    rng = np.random.default_rng([seed, 404])
    arrival = np.sort(rng.uniform(0.0, span, size=n))
    ts = np.maximum(arrival - rng.exponential(0.4, size=n), 0.0)
    keys = rng.integers(0, 8, size=n)
    vals = rng.integers(1, 50, size=n)
    return [(float(a), float(t), int(k), int(v))
            for a, t, k, v in zip(arrival, ts, keys, vals)]


def check_event_streaming(seed: int,
                          plan: Optional[FaultPlan] = None) -> OracleReport:
    """Windowed exactly-once under crashes + pipeline conservation.

    Two legs.  The *checkpoint* leg crashes :func:`run_windowed_stream`
    at plan-derived times and demands the full emission log — not just
    final state — be byte-equal to the crash-free run, that the scalar
    and vectorized aggregators agree under the same crash plan, and that
    the per-window ledger ``assigned(w) == window_in[w] + window_late[w]``
    balances against an independent recount.  The *pipeline* leg pushes a
    bursty overload through the credit-based pipeline and checks lossless
    record conservation and determinism.
    """
    if plan is None:
        plan = FaultPlan.renewal(seed, horizon=80.0,
                                 rates={"operator_crash": 0.04},
                                 mean_duration=5.0)
    report = OracleReport("event_streaming", seed, plan)
    events = _windowed_events(seed)
    crashes = operator_crash_times(plan)
    report.injections = len(crashes)
    window = WindowSpec.tumbling(2.0)
    agg = WindowAgg.by_name("sum")
    cfg = CheckpointConfig(interval=8.0)
    kw = dict(watermark_delay=1.0, allowed_lateness=1.0)
    free = run_windowed_stream(events, window, agg, cfg, **kw)
    faulted1 = run_windowed_stream(events, window, agg, cfg,
                                   crash_times=crashes, **kw)
    faulted2 = run_windowed_stream(events, window, agg, cfg,
                                   crash_times=crashes, **kw)
    scalar = run_windowed_stream(events, window, agg, cfg,
                                 crash_times=crashes, vectorized=False, **kw)
    report.expect(_bytes(faulted1.emissions) == _bytes(free.emissions),
                  "exactly_once_emissions")
    report.expect(_bytes(faulted1.emissions) == _bytes(faulted2.emissions),
                  "result_determinism")
    report.expect(_bytes(scalar.emissions) == _bytes(faulted1.emissions),
                  "scalar_vectorized_equivalence")
    report.expect(len(faulted1.recoveries) == len(crashes),
                  "all_crashes_recovered")
    report.expect(faulted1.processed_events == len(events),
                  "record_conservation")
    # independent recount of assigned (window, key) pairs for the ledger
    ts_all = np.array([e[1] for e in events])
    starts = assign_tumbling(ts_all, window.size)
    assigned: Dict[tuple, int] = {}
    for (_a, _t, k, _v), s in zip(events, starts):
        wkey = (k, float(s))
        assigned[wkey] = assigned.get(wkey, 0) + 1
    for run, label in ((free, "free"), (faulted1, "faulted")):
        balanced = (
            sum(run.window_in.values()) + sum(run.window_late.values())
            == len(events)
            and all(run.window_in.get(w, 0) + run.window_late.get(w, 0) == c
                    for w, c in assigned.items()))
        report.expect(balanced, f"{label}:per_window_conservation")

    # pipeline leg: bursty 1.5x overload through the credit pipeline
    pcfg = PipelineConfig(backpressure=True, credits=4)
    capacity = pcfg.parallelism / pcfg.per_record_cost
    pev = event_stream("bursty", rate=1.5 * capacity, duration=8.0,
                       seed=np.random.default_rng([seed, 405]))
    p1 = run_event_pipeline(pev, pcfg)
    p2 = run_event_pipeline(pev, pcfg)
    report.expect(p1.conserved, "pipeline_record_conservation")
    report.expect(
        (p1.processed_records, p1.shed_records, p1.windows_fired,
         p1.corrections, p1.late_dropped_records)
        == (p2.processed_records, p2.shed_records, p2.windows_fired,
            p2.corrections, p2.late_dropped_records),
        "pipeline_determinism")
    report.expect(p1.pipeline_latency.p99 <= 10.0,
                  "pipeline_latency_bounded")
    return report


# --------------------------------------------------------------------- dfs

def _run_dfs(seed: int, plan: Optional[FaultPlan], horizon: float,
             scrub: bool = False):
    """Replicated + EC files under ``plan``, read back after the horizon.

    With ``scrub`` the background scrubber runs, and one closing scrub
    pass flushes any still-latent rot into quarantine + repair before
    the reads.  Returns the written and read bytes, the filesystem (for
    its counters and simulator) and the injection trace.
    """
    sim = Simulator()
    cluster = make_cluster(sim, n_racks=3, nodes_per_rack=3)
    dfs = DistributedFS(cluster,
                        DFSConfig(block_size=64 * 1024, ec_k=4, ec_m=2,
                                  detection_delay=1.0,
                                  scrub_interval=6.0 if scrub else 0.0),
                        seed=7)
    rng = np.random.default_rng([seed, 303])
    data_rep = rng.bytes(150_000)
    data_ec = rng.bytes(200_000)
    sim.run_until_done(dfs.write("/rep.bin", data=data_rep,
                                 writer="h0_0", mode="replicate"))
    sim.run_until_done(dfs.write("/ec.bin", data=data_ec,
                                 writer="h1_0", mode="ec"))
    trace = InjectionTrace()
    if plan is not None:
        ClusterChaos(cluster, plan, trace).start()
        DFSChaos(dfs, plan, trace).start()
    sim.run(until=horizon + 30.0)
    if scrub:
        sim.run_until_done(dfs.scrub_now())
        sim.run(until=sim.now + 30.0)
    got_rep, _ = sim.run_until_done(dfs.read("/rep.bin", reader="h2_0"))
    got_ec, _ = sim.run_until_done(dfs.read("/ec.bin", reader="h0_1"))
    return data_rep, data_ec, got_rep, got_ec, dfs, trace


def check_dfs(seed: int, plan: Optional[FaultPlan] = None) -> OracleReport:
    """DFS durability under transient node loss and silent block loss."""
    horizon = 40.0
    if plan is None:
        node_names = [f"h{r}_{i}" for r in range(3) for i in range(3)]
        plan = FaultPlan.renewal(
            seed, horizon=horizon,
            rates={"node_fail": 0.02, "lost_block": 0.05},
            targets=node_names, mean_duration=5.0)
    report = OracleReport("dfs", seed, plan)
    want_rep, want_ec, got_rep, got_ec, fs1, trace1 = \
        _run_dfs(seed, plan, horizon)
    _wr, _we, got_rep2, got_ec2, fs2, trace2 = _run_dfs(seed, plan, horizon)
    c1 = (fs1.repairs_started, fs1.degraded_reads)
    c2 = (fs2.repairs_started, fs2.degraded_reads)
    report.injections = len(trace1)
    report.expect(got_rep == want_rep, "replicated_read_equivalence")
    report.expect(got_ec == want_ec, "ec_read_equivalence")
    report.expect(trace1.signature() == trace2.signature(),
                  "trace_determinism")
    report.expect((got_rep2, got_ec2, c2) == (got_rep, got_ec, c1),
                  "result_determinism")
    try:
        fs1.sim._queue.check_invariants()
        report.expect(True, "heap_invariants")
    except AssertionError:
        report.expect(False, "heap_invariants")
    return report


# --------------------------------------------------------------------- autoscale

def check_autoscale(seed: int, plan: Optional[FaultPlan] = None) -> OracleReport:
    """Fluid autoscaler under load bursts: bounds, conservation, determinism."""
    if plan is None:
        plan = FaultPlan.renewal(seed, horizon=600.0,
                                 rates={"load_burst": 0.005},
                                 mean_duration=60.0)
    report = OracleReport("autoscale", seed, plan)
    report.injections = sum(1 for e in plan if e.kind == "load_burst")
    rng = np.random.default_rng([seed, 404])
    base = 40.0 + 30.0 * np.sin(np.arange(600) / 60.0) + \
        rng.normal(0.0, 3.0, size=600)
    load = burst_series(np.clip(base, 0.0, None), plan)
    kw = dict(mu=10.0, dt=1.0, control_period=30.0, boot_delay=120.0,
              cooldown=60.0, min_instances=1, max_instances=50,
              initial_instances=4)
    r1 = simulate_autoscaling(ThresholdPolicy(high=0.75, low=0.3, step=3),
                              load, **kw)
    r2 = simulate_autoscaling(ThresholdPolicy(high=0.75, low=0.3, step=3),
                              load, **kw)
    report.expect(r1.instances.tobytes() == r2.instances.tobytes()
                  and r1.queue.tobytes() == r2.queue.tobytes(),
                  "result_determinism")
    report.expect(bool(np.all((r1.instances >= 1) & (r1.instances <= 50))),
                  "fleet_bounds")
    report.expect(bool(np.all(r1.queue >= 0.0)), "queue_nonnegative")
    report.expect(abs(r1.instance_seconds - float(r1.instances.sum() * 1.0))
                  < 1e-6, "billing_conservation")
    return report


# --------------------------------------------------------------------- resilience

def check_resilience(seed: int,
                     plan: Optional[FaultPlan] = None) -> OracleReport:
    """Policy-enabled runs: recovery equivalence, typed budget failure,
    and overload-safe admission control.

    Three legs:

    1. The wordcount job with a full :class:`ResiliencePolicies` stack
       (generous retry budget, hedging, a never-firing deadline) under
       the dataflow fault plan must be byte-equal to the fault-free run
       — policies may change *when* work happens, never *what* comes out
       — and the policy-enabled fault-free run must equal the plain one.
    2. A scripted crash storm against a deliberately tight retry budget
       must surface as a *deterministic, typed* failure carrying the
       attempt history — never a hang, never an untyped crash.
    3. The micro-batch engine under 3.75x overload with token-bucket
       admission must stay stable with a bounded backlog and exact drop
       accounting: ``in == out + inflight + shed``.
    """
    if plan is None:
        node_names = [f"h{r}_{i}" for r in range(2) for i in range(4)]
        plan = FaultPlan.renewal(
            seed, horizon=0.3,
            rates={"node_fail": 3.0, "slow_node": 6.0,
                   "task_crash": 15.0, "lost_shuffle": 10.0},
            targets=node_names, mean_duration=0.08)
    report = OracleReport("resilience", seed, plan)
    policies = ResiliencePolicies(
        retry=RetryPolicy(max_attempts=10, budget=200, base_delay=0.01,
                          seed=seed),
        hedge=HedgePolicy(multiplier=3.0),
        deadline_timeout=1e6)
    free, _t0, n_records, _a = _run_dataflow(seed, None)
    free_pol, _t1, _, _a1 = _run_dataflow(seed, None, policies=policies)
    faulted1, trace1, _, _a2 = _run_dataflow(seed, plan, policies=policies)
    faulted2, trace2, _, _a3 = _run_dataflow(seed, plan, policies=policies)
    report.injections = len(trace1)
    report.expect(_bytes(free_pol) == _bytes(free), "idle_policy_equivalence")
    report.expect(_bytes(faulted1) == _bytes(free), "recovery_equivalence")
    report.expect(trace1.signature() == trace2.signature(),
                  "trace_determinism")
    report.expect(_bytes(faulted1) == _bytes(faulted2), "result_determinism")
    report.expect(sum(c for _w, c in faulted1) == n_records,
                  "record_conservation")

    # crash storm vs. tight budget: deterministic typed failure
    crash_plan = FaultPlan.scripted(
        [FaultEvent(time=0.0, kind="task_crash", magnitude=500.0)],
        seed=seed, name="budget-exhaust")
    tight = ResiliencePolicies(
        retry=RetryPolicy(max_attempts=3, budget=6, base_delay=0.0,
                          seed=seed))
    outcomes: List[Optional[tuple]] = []
    for _ in range(2):
        try:
            _run_dataflow(seed, crash_plan, policies=tight)
            outcomes.append(None)
        except TaskFailedError as exc:
            outcomes.append((exc.op, exc.job, exc.stage, exc.budget,
                             tuple((a.op, a.time) for a in exc.attempts)))
    report.expect(outcomes[0] is not None, "budget_exhaustion_typed")
    report.expect(outcomes[0] is not None and len(outcomes[0][4]) > 0,
                  "budget_attempt_history")
    report.expect(outcomes[0] == outcomes[1], "budget_failure_determinism")

    # overload + admission control: stable, bounded, exactly accounted
    adm = AdmissionConfig(rate=800.0, burst=1200.0, max_backlog=4)
    cfg = MicroBatchConfig(batch_interval=1.0, per_record_cost=2e-3,
                           parallelism=2, admission=adm)
    m1 = run_microbatch(lambda t: 3000.0, cfg, 30.0)
    m2 = run_microbatch(lambda t: 3000.0, cfg, 30.0)
    reg = m1.registry
    report.expect(m1.shed_records > 0, "admission_sheds_under_overload")
    report.expect(m1.max_backlog <= adm.max_backlog,
                  "admission_backlog_bounded")
    report.expect(
        reg is not None
        and reg.value("stream.records_in")
        == reg.value("stream.records_out")
        + reg.value("stream.records_inflight")
        + reg.value("stream.records_shed")
        and reg.value("stream.records_inflight") == 0,
        "admission_flow_conservation")
    report.expect(
        (m1.processed_records, m1.shed_records, m1.max_backlog)
        == (m2.processed_records, m2.shed_records, m2.max_backlog),
        "admission_determinism")
    report.expect(m1.stable, "admission_stable_degraded")
    return report


# --------------------------------------------------------------------- serve

def _serve_mix():
    from ..serve import TenantSpec
    return [
        TenantSpec(name="sql", profile="web-sql", users=1_500_000,
                   arrival="poisson", slo_p99=30.0),
        TenantSpec(name="etl", profile="dataflow", users=400_000,
                   arrival="mmpp", slo_p99=90.0),
        TenantSpec(name="pulse", profile="streaming", users=600_000,
                   arrival="periodic", slo_p99=45.0),
        TenantSpec(name="dag", profile="workflow", users=250_000,
                   arrival="sessions", slo_p99=150.0),
    ]


def check_serve(seed: int, plan: Optional[FaultPlan] = None) -> OracleReport:
    """Multi-tenant serving gateway under the full fault vocabulary.

    The gateway composes admission, fair-share scheduling, breaker-gated
    autoscaling, and retry/hedging, so its oracle checks *accounting*
    invariants rather than output equivalence (faults legitimately
    change which requests complete when):

    1. **Determinism** — two faulted runs produce byte-equal snapshots
       (per-tenant counters *and* per-request latency vectors).
    2. **Conservation** — for every tenant, in clean and faulted runs,
       ``submitted == rejected + completed + failed + inflight`` exactly,
       with ``inflight == 0`` after drain, and each admitted request
       terminal exactly once (retries/hedges never double-bill).
    3. **Graceful degradation** — the faulted worst-tenant p99 stays
       within a constant factor of the fault-free run (no unbounded
       divergence), and load bursts only ever add offered requests.
    """
    from ..serve import ServeConfig, run_gateway
    horizon = 40.0
    if plan is None:
        plan = FaultPlan.renewal(
            seed, horizon=horizon,
            rates={"task_crash": 0.15, "slow_node": 0.02,
                   "node_fail": 0.01, "load_burst": 0.02},
            mean_duration=6.0)
    report = OracleReport("serve", seed, plan)
    report.injections = len(plan)
    mix = _serve_mix()
    cfg = ServeConfig(horizon=horizon, sample_frac=5e-3, seed=seed)
    clean = run_gateway(mix, cfg)
    faulted1 = run_gateway(mix, cfg, plan=plan)
    faulted2 = run_gateway(mix, cfg, plan=plan)
    report.expect(_bytes(faulted1.snapshot()) == _bytes(faulted2.snapshot()),
                  "result_determinism")
    for label, rep in (("clean", clean), ("faulted", faulted1)):
        report.expect(rep.conservation_ok(),
                      f"{label}:per_tenant_conservation")
        report.expect(all(t.inflight == 0 for t in rep.tenants.values()),
                      f"{label}:drained")
        report.expect(
            all(t.completed + t.failed == t.submitted - t.rejected
                for t in rep.tenants.values()),
            f"{label}:bill_exactly_once")
        report.expect(0.0 < rep.jain_fairness() <= 1.0 + 1e-12,
                      f"{label}:jain_in_range")
        report.expect(rep.node_seconds > 0, f"{label}:fleet_billed")
    report.expect(
        faulted1.worst_p99() <= 10.0 * max(clean.worst_p99(), 1.0),
        "graceful_p99_degradation")
    report.expect(
        all(faulted1.tenants[n].submitted >= clean.tenants[n].submitted
            for n in clean.tenants),
        "load_bursts_only_add_offers")
    return report


# --------------------------------------------------------------------- integrity

def _dfs_books(dfs: DistributedFS):
    """Integrity account and whether full protection is restored."""
    account = (dfs.integrity_detected, dfs.integrity_latent_discarded,
               len(dfs.audit_integrity()))
    protection = all(
        len(b.locations) == (dfs.config.replication
                             if b.mode == "replicate"
                             else dfs.codec.k + dfs.codec.m)
        for b in dfs._blocks.values())
    return account, protection


def check_integrity(seed: int,
                    plan: Optional[FaultPlan] = None) -> OracleReport:
    """End-to-end data integrity under silent ``data_corrupt`` faults.

    Three legs, each holding the same contract — silent corruption may
    cost retries and repair traffic, never correctness, and every
    injected corruption is accounted for exactly
    (``injected == detected + latent_discarded + latent_remaining``):

    1. **Engine** — wordcount with rotting shuffle buckets, alone and
       composed with task crashes + node failures; results must be
       byte-equal to the fault-free run and detection must ride the
       lineage-recovery path.
    2. **DFS** — replicated + EC files with rotting replicas/fragments
       (composed with transient node failures), a background scrubber,
       and a closing scrub pass; reads must be byte-equal, nothing may
       stay latent after the scrub, and full replication/fragment counts
       must be restored (never repaired *from* a corrupt copy).
    3. **Streaming** — stateful and windowed checkpoint/replay with
       crashes *and* rotting snapshots; state and the emission log must
       be byte-equal to fault-free.

    ``plan``, when given, drives all three legs; the default builds one
    per leg calibrated to its workload's time scale.
    """
    node_names = [f"h{r}_{i}" for r in range(2) for i in range(4)]
    engine_plans = {
        "alone": plan if plan is not None else FaultPlan.renewal(
            seed, horizon=0.3, rates={"data_corrupt": 20.0}),
        "composed": plan if plan is not None else FaultPlan.renewal(
            seed, horizon=0.3,
            rates={"data_corrupt": 20.0, "task_crash": 8.0,
                   "node_fail": 1.0},
            targets=node_names, mean_duration=0.08),
    }
    report = OracleReport("integrity", seed,
                          plan if plan is not None
                          else engine_plans["composed"])

    # -- leg 1: engine shuffle buckets
    free, _t, n_records, _a = _run_dataflow(seed, None)
    for label, eplan in engine_plans.items():
        f1, trace1, _n, acc1 = _run_dataflow(seed, eplan)
        f2, trace2, _n2, acc2 = _run_dataflow(seed, eplan)
        injected = trace1.count("data_corrupt")
        report.injections += injected
        detected, discarded, latent = acc1
        report.expect(_bytes(f1) == _bytes(free),
                      f"engine_{label}:recovery_equivalence")
        report.expect(trace1.signature() == trace2.signature(),
                      f"engine_{label}:trace_determinism")
        report.expect(_bytes(f1) == _bytes(f2) and acc1 == acc2,
                      f"engine_{label}:result_determinism")
        report.expect(sum(c for _w, c in f1) == n_records,
                      f"engine_{label}:record_conservation")
        report.expect(injected == detected + discarded + latent,
                      f"engine_{label}:integrity_accounting")

    # -- leg 2: DFS replicas and EC fragments, scrub-and-repair
    horizon = 40.0
    dfs_names = [f"h{r}_{i}" for r in range(3) for i in range(3)]
    dplan = plan if plan is not None else FaultPlan.renewal(
        seed, horizon=horizon,
        rates={"data_corrupt": 0.12, "node_fail": 0.02},
        targets=dfs_names, mean_duration=5.0)
    want_rep, want_ec, got_rep, got_ec, dfs1, dtrace1 = \
        _run_dfs(seed, dplan, horizon, scrub=True)
    _wr, _we, got_rep2, got_ec2, dfs2, dtrace2 = \
        _run_dfs(seed, dplan, horizon, scrub=True)
    dacc1, prot1 = _dfs_books(dfs1)
    dacc2, prot2 = _dfs_books(dfs2)
    injected = dtrace1.count("data_corrupt")
    report.injections += injected
    detected, discarded, latent = dacc1
    report.expect(got_rep == want_rep, "dfs:replicated_read_equivalence")
    report.expect(got_ec == want_ec, "dfs:ec_read_equivalence")
    report.expect(dtrace1.signature() == dtrace2.signature(),
                  "dfs:trace_determinism")
    report.expect((got_rep2, got_ec2, dacc2, prot2)
                  == (got_rep, got_ec, dacc1, prot1),
                  "dfs:result_determinism")
    report.expect(latent == 0, "dfs:no_latent_after_scrub")
    report.expect(injected == detected + discarded,
                  "dfs:integrity_accounting")
    report.expect(prot1, "dfs:protection_restored")

    # -- leg 3: streaming checkpoints (stateful + windowed)
    splan = plan if plan is not None else FaultPlan.renewal(
        seed, horizon=160.0,
        rates={"operator_crash": 0.03, "data_corrupt": 0.04})
    crashes = operator_crash_times(splan)
    corruptions = snapshot_corrupt_times(splan)
    events = _stream_events(seed)
    cfg = CheckpointConfig(interval=10.0)
    base = run_stateful_stream(events, add, lambda v: v, cfg)
    s1 = run_stateful_stream(events, add, lambda v: v, cfg,
                             crash_times=crashes,
                             corrupt_times=corruptions)
    s2 = run_stateful_stream(events, add, lambda v: v, cfg,
                             crash_times=crashes,
                             corrupt_times=corruptions)
    reg = s1.registry
    report.injections += int(reg.value("integrity.injected"))
    report.expect(_bytes(s1.state) == _bytes(base.state),
                  "stream:recovery_equivalence")
    report.expect(_bytes(s1.state) == _bytes(s2.state),
                  "stream:result_determinism")
    report.expect(len(s1.recoveries) == len(crashes),
                  "stream:all_crashes_recovered")
    report.expect(s1.processed_events == len(events),
                  "stream:record_conservation")
    report.expect(reg.value("integrity.injected")
                  == reg.value("integrity.detected")
                  + reg.value("integrity.latent"),
                  "stream:integrity_accounting")

    wevents = _windowed_events(seed)
    wplan = plan if plan is not None else FaultPlan.renewal(
        seed, horizon=80.0,
        rates={"operator_crash": 0.04, "data_corrupt": 0.05},
        mean_duration=5.0)
    wcrashes = operator_crash_times(wplan)
    wcorruptions = snapshot_corrupt_times(wplan)
    window = WindowSpec.tumbling(2.0)
    agg = WindowAgg.by_name("sum")
    wkw = dict(watermark_delay=1.0, allowed_lateness=1.0)
    wcfg = CheckpointConfig(interval=8.0)
    wfree = run_windowed_stream(wevents, window, agg, wcfg, **wkw)
    w1 = run_windowed_stream(wevents, window, agg, wcfg,
                             crash_times=wcrashes,
                             corrupt_times=wcorruptions, **wkw)
    w2 = run_windowed_stream(wevents, window, agg, wcfg,
                             crash_times=wcrashes,
                             corrupt_times=wcorruptions, **wkw)
    wreg = w1.registry
    report.injections += int(wreg.value("integrity.injected"))
    report.expect(_bytes(w1.emissions) == _bytes(wfree.emissions),
                  "windowed:exactly_once_emissions")
    report.expect(_bytes(w1.emissions) == _bytes(w2.emissions),
                  "windowed:result_determinism")
    report.expect(w1.processed_events == len(wevents),
                  "windowed:record_conservation")
    report.expect(wreg.value("integrity.injected")
                  == wreg.value("integrity.detected")
                  + wreg.value("integrity.latent"),
                  "windowed:integrity_accounting")
    return report


# --------------------------------------------------------------------- drivers

LAYERS: Dict[str, Callable[[int], OracleReport]] = {
    "dataflow": check_dataflow,
    "streaming": check_streaming,
    "microbatch": check_microbatch,
    "event_streaming": check_event_streaming,
    "dfs": check_dfs,
    "autoscale": check_autoscale,
    "resilience": check_resilience,
    "serve": check_serve,
    "integrity": check_integrity,
}


def run_all(seed: int,
            layers: Optional[Sequence[str]] = None) -> List[OracleReport]:
    """Run every layer's oracle for one seed."""
    names = list(layers) if layers is not None else sorted(LAYERS)
    return [LAYERS[name](seed) for name in names]


def sweep(seeds: Sequence[int],
          layers: Optional[Sequence[str]] = None) -> List[OracleReport]:
    """Run the oracles over many seeds; returns the flat report list."""
    out: List[OracleReport] = []
    for s in seeds:
        out.extend(run_all(int(s), layers))
    return out
