"""The multi-tenant serving gateway — every layer wired end to end.

``ServeGateway`` drives one :class:`~repro.simcore.kernel.Simulator`
through the full serving path of ROADMAP item 1:

1. **Admission** — each tenant offers its request stream to its own
   :class:`~repro.resilience.admission.AdmissionController` (token
   bucket + backlog bound).  Shed requests are *rejected* and never
   reach the scheduler: rejected work must not create phantom demand
   against the tenant's fair share.
2. **Scheduling** — admitted requests become
   :class:`~repro.scheduler.jobs.JobSpec` waves replayed through a
   shared :class:`~repro.scheduler.sim.SchedulerSim` under DRF / fair /
   capacity policies; multi-wave workflow requests chain their next
   wave from the ``on_job_done`` seam.
3. **Autoscaling** — a control loop sizes the node fleet with a
   :class:`~repro.cloud.autoscale.BreakerGatedPolicy`-wrapped threshold
   policy; booting nodes are billed, scale-in cancels newest boots
   first, and capacity changes flow through
   :meth:`SchedulerSim.set_capacity`.
4. **Resilience** — task attempts crash under chaos plans and retry
   through per-request :class:`~repro.resilience.policy.RetrySession`
   budgets; slow tail attempts are hedged per
   :class:`~repro.resilience.hedge.HedgePolicy`.  A request bills its
   tenant exactly once no matter how many attempts resilience spends.

Chaos plans (:mod:`repro.chaos.plan`) map onto the gateway as:
``task_crash`` → crash the next launching attempt(s), ``slow_node`` →
fleet-wide speed factor for its window, ``node_fail`` → remove a node
for its duration, ``load_burst`` → replicate arrivals in its window.
Everything is deterministic per ``(seed, plan)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..chaos.plan import FaultPlan
from ..common.errors import ConfigError, RetryBudgetExhaustedError
from ..common.stats import TimeWeighted
from ..obs.metrics import get_registry
from ..cloud.autoscale import BreakerGatedPolicy, ThresholdPolicy
from ..resilience.admission import AdmissionConfig, AdmissionController
from ..resilience.hedge import HedgePolicy
from ..resilience.policy import RetryPolicy, RetrySession
from ..scheduler.jobs import JobSpec, Resources
from ..scheduler.policies import make_scheduling_policy
from ..scheduler.sim import SchedulerSim
from ..simcore.kernel import Simulator
from .report import ServeReport, TenantStats
from .tenants import JobRequest, TenantSpec, generate_requests

__all__ = ["ServeConfig", "ServeGateway", "run_gateway"]

#: Fraction of an attempt's effective duration that elapses before an
#: injected crash is detected (work lost to the crash).
_CRASH_POINT = 0.3

#: Utilization bounds of the autoscaler's threshold policy.
_SCALE_HIGH = 0.85
_SCALE_LOW = 0.35


@dataclass(frozen=True)
class ServeConfig:
    """Knobs of one gateway run."""

    policy: str = "drf"                 # "drf" | "fair" | "capacity" | "fifo"
    node: Resources = Resources(cpus=8.0, mem=32.0)
    initial_nodes: int = 4
    min_nodes: int = 1
    max_nodes: int = 64
    control_period: float = 15.0
    boot_delay: float = 30.0
    flap_window: float = 120.0
    retry: RetryPolicy = RetryPolicy(max_attempts=4, budget=12,
                                     base_delay=0.25, max_delay=5.0)
    hedge: Optional[HedgePolicy] = HedgePolicy(quantile=0.95,
                                               multiplier=2.0,
                                               min_samples=8)
    horizon: float = 120.0              # arrival window (sim seconds)
    sample_frac: float = 1.0            # population thinning (see tenants)
    seed: int = 0

    def __post_init__(self) -> None:
        if self.initial_nodes < self.min_nodes or self.min_nodes < 1:
            raise ConfigError("need 1 <= min_nodes <= initial_nodes")
        if self.max_nodes < self.initial_nodes:
            raise ConfigError("max_nodes must cover initial_nodes")
        if self.control_period <= 0 or self.horizon <= 0:
            raise ConfigError("control_period and horizon must be positive")


@dataclass
class _ReqState:
    """Mutable per-request tracking inside the gateway."""

    request: JobRequest
    stats: TenantStats
    t0: float                       # arrival at the gate (latency origin)
    stage_idx: int = 0
    session: Optional[RetrySession] = None
    failed: bool = False            # retry budget exhausted — terminal
    job_ids: List[int] = field(default_factory=list)


class _ServingScheduler(SchedulerSim):
    """SchedulerSim whose task execution passes through resilience.

    Overrides :meth:`_task` so each granted task runs as a sequence of
    *attempts*: chaos crash tokens kill attempts partway (the work is
    lost), the request's :class:`RetrySession` prices the backoff and
    enforces the budget, and clean attempts predicted to straggle are
    hedged with a backup attempt when spare capacity exists.  All paths
    funnel into the stock :meth:`_complete_task` bookkeeping, so the
    resource-conservation invariants of the base simulator hold
    unchanged.
    """

    def __init__(self, sim: Simulator, capacity: Resources, policy,
                 gateway: "ServeGateway") -> None:
        super().__init__(sim, capacity, policy)
        self.gateway = gateway

    def _task(self, job, duration: float):
        gw = self.gateway
        state = gw._states_by_job.get(job.spec.job_id)
        if state is None:           # not a gateway job (defensive)
            yield self.sim.timeout(duration)
            self._complete_task(job)
            return
        op = f"stage{state.stage_idx}"
        while True:
            eff = gw._effective_duration(self.sim.now, duration)
            gw._note_attempt(state)
            if not state.failed and gw._consume_crash_token():
                # attempt dies _CRASH_POINT of the way in; work is lost
                yield self.sim.timeout(_CRASH_POINT * eff)
                try:
                    delay = state.session.record_failure(
                        op, "task_crash", self.sim.now)
                except RetryBudgetExhaustedError:
                    gw._mark_failed(state)
                    # run one final clean attempt so the slot's resource
                    # bookkeeping stays exact; the request is already
                    # billed as failed and will not chain further stages
                    yield self.sim.timeout(
                        gw._effective_duration(self.sim.now, duration))
                    break
                gw._note_retry(state)
                if delay > 0:
                    yield self.sim.timeout(delay)
                continue
            # clean attempt — hedge if it is predicted to straggle and a
            # spare slot exists right now
            theta = gw._hedge_delay(state)
            if (theta is not None and theta < eff
                    and job.spec.demand.fits_in(self.free)):
                yield self.sim.timeout(theta)
                # launch the backup: take a real slot for its lifetime
                self.free = self.free - job.spec.demand
                self._busy.update(self.sim.now,
                                  self.capacity.cpus - self.free.cpus)
                backup_eff = gw._effective_duration(self.sim.now, duration)
                primary_left = eff - theta
                win = min(primary_left, backup_eff)
                gw._note_hedge(state, won=backup_eff < primary_left)
                yield self.sim.timeout(win)
                self.free = self.free + job.spec.demand
                self._busy.update(self.sim.now,
                                  self.capacity.cpus - self.free.cpus)
                if state.session is not None:
                    state.session.record_success(op, self.sim.now)
                gw._record_attempt_duration(state, theta + win)
                break
            yield self.sim.timeout(eff)
            if state.session is not None:
                state.session.record_success(op, self.sim.now)
            gw._record_attempt_duration(state, eff)
            break
        self._complete_task(job)


class ServeGateway:
    """One end-to-end serving run over a tenant mix."""

    def __init__(self, tenants: Sequence[TenantSpec], config: ServeConfig,
                 plan: Optional[FaultPlan] = None) -> None:
        if not tenants:
            raise ConfigError("need at least one tenant")
        names = [t.name for t in tenants]
        if len(set(names)) != len(names):
            raise ConfigError("tenant names must be unique")
        self.tenants = list(tenants)
        self.cfg = config
        self.plan = plan if plan is not None else FaultPlan.scripted([])

        self.sim = Simulator()
        policy = self._make_policy()
        self._nodes_live = config.initial_nodes
        self._nodes_down = 0
        self._booting: Dict[int, Tuple[float, int]] = {}  # id -> (ready, n)
        self._boot_seq = 0
        self._billed = TimeWeighted()
        self._cap_tw = TimeWeighted()
        self.sched = _ServingScheduler(
            self.sim, config.node.scaled(config.initial_nodes), policy, self)
        self.sched.on_job_done = self._on_job_done

        self.stats: Dict[str, TenantStats] = {
            t.name: TenantStats(name=t.name, weight=t.weight,
                                slo_p99=t.slo_p99)
            for t in self.tenants
        }
        self._admission: Dict[str, AdmissionController] = {
            t.name: AdmissionController(AdmissionConfig(
                rate=t.gate_rate(config.sample_frac),
                burst=t.gate_burst(config.sample_frac),
                max_backlog=t.max_backlog,
                mode=t.admission_mode))
            for t in self.tenants
        }
        self._states_by_job: Dict[int, _ReqState] = {}
        self._job_seq = 0
        self._outstanding = 0
        self._open_sources = 0
        self._done_ev = self.sim.event()
        self._finished = False
        self._work_window = 0.0
        self._scale_policy = policy  # scheduler policy (for name)
        self._autoscale = BreakerGatedPolicy(
            ThresholdPolicy(high=_SCALE_HIGH, low=_SCALE_LOW),
            flap_window=config.flap_window)
        # chaos state
        self._crash_tokens = 0
        self._slow: List[Tuple[float, float, float]] = sorted(
            (e.time, e.time + e.duration, e.magnitude)
            for e in self.plan if e.kind == "slow_node" and e.duration > 0)
        # per-tenant attempt-duration history feeding the hedge policy
        self._attempt_hist: Dict[str, List[float]] = {
            t.name: [] for t in self.tenants}

    # -- construction helpers ---------------------------------------------

    def _make_policy(self):
        if self.cfg.policy == "capacity":
            total_w = sum(t.weight for t in self.tenants)
            guarantees = {t.name: t.weight / total_w for t in self.tenants}
            return make_scheduling_policy("capacity", guarantees=guarantees)
        return make_scheduling_policy(self.cfg.policy)

    def _requests_for(self, spec: TenantSpec, id_base: int) -> List[JobRequest]:
        reqs = generate_requests(spec, self.cfg.horizon, self.cfg.seed,
                                 sample_frac=self.cfg.sample_frac,
                                 id_base=id_base)
        bursts = [(e.time, e.time + e.duration, int(round(e.magnitude)))
                  for e in self.plan
                  if e.kind == "load_burst" and e.duration > 0]
        if not bursts:
            return reqs
        # a load burst multiplies the arrival process in its window:
        # deterministically replicate affected requests (thinning in
        # reverse), giving clones fresh ids past the tenant's base block
        clone_id = id_base + len(reqs)
        out = list(reqs)
        for req in reqs:
            extra = 0
            for (t0, t1, mult) in bursts:
                if t0 <= req.arrival < t1:
                    extra = max(extra, mult - 1)
            for _ in range(extra):
                out.append(JobRequest(tenant=req.tenant, req_id=clone_id,
                                      arrival=req.arrival, kind=req.kind,
                                      stages=req.stages))
                clone_id += 1
        out.sort(key=lambda r: (r.arrival, r.req_id))
        return out

    # -- chaos adapters ----------------------------------------------------

    def _effective_duration(self, start: float, work: float) -> float:
        """Wall time for ``work`` nominal seconds starting at ``start``.

        Fleet-wide straggler windows run work at ``magnitude`` speed
        (< 1 is slower).  Overlapping windows are applied sequentially,
        clamped, which under-penalizes pathological overlaps — renewal
        plans at sane rates rarely overlap.
        """
        t = start
        remaining = float(work)
        for (t0, t1, mag) in self._slow:
            if t1 <= t:
                continue
            seg_start = max(t0, t)
            if seg_start > t:
                gap = seg_start - t
                if remaining <= gap:
                    return (t + remaining) - start
                t = seg_start
                remaining -= gap
            seg = t1 - t
            done_in_seg = seg * mag
            if remaining <= done_in_seg:
                return (t + remaining / mag) - start
            t = t1
            remaining -= done_in_seg
        return (t + remaining) - start

    def _consume_crash_token(self) -> bool:
        if self._crash_tokens > 0:
            self._crash_tokens -= 1
            return True
        return False

    def _crash_feeder(self):
        """Arm ``task_crash`` tokens at their scripted times."""
        for ev in self.plan:
            if ev.kind != "task_crash":
                continue
            if ev.time > self.sim.now:
                yield self.sim.timeout(ev.time - self.sim.now)
            self._crash_tokens += max(1, int(round(ev.magnitude)))

    def _node_failure(self, ev):
        if ev.time > self.sim.now:
            yield self.sim.timeout(ev.time - self.sim.now)
        self._nodes_down += 1
        self._apply_capacity()
        if ev.duration > 0:
            yield self.sim.timeout(ev.duration)
            self._nodes_down -= 1
            self._apply_capacity()

    # -- fleet / autoscaling ----------------------------------------------

    def _billed_nodes(self) -> int:
        return self._nodes_live + sum(n for (_, n) in self._booting.values())

    def _apply_capacity(self) -> None:
        n_eff = max(self._nodes_live - self._nodes_down, 0)
        self._billed.update(self.sim.now, float(self._billed_nodes()))
        self._cap_tw.update(self.sim.now, n_eff * self.cfg.node.cpus)
        self.sched.set_capacity(self.cfg.node.scaled(n_eff))

    def _boot_batch(self, boot_id: int):
        yield self.sim.timeout(self.cfg.boot_delay)
        batch = self._booting.pop(boot_id, None)
        if batch is None:           # cancelled by a scale-in
            return
        self._nodes_live += batch[1]
        self._apply_capacity()

    def _autoscaler(self):
        cfg = self.cfg
        while not self._done_ev.triggered:
            yield self.sim.timeout(cfg.control_period)
            if self._done_ev.triggered:
                return
            t = self.sim.now
            cap = self.sched.capacity.cpus
            alloc = cap - self.sched.free.cpus
            util = alloc / cap if cap > 0 else 10.0
            offered = self._work_window / cfg.control_period / cfg.node.cpus
            self._work_window = 0.0
            pending = self._billed_nodes()
            want = self._autoscale.desired(t, offered, min(util, 10.0),
                                           pending)
            want = max(cfg.min_nodes, min(want, cfg.max_nodes))
            if want > pending:
                self._boot_seq += 1
                self._booting[self._boot_seq] = (t + cfg.boot_delay,
                                                 want - pending)
                self.sim.process(self._boot_batch(self._boot_seq),
                                 name=f"boot:{self._boot_seq}")
                self._billed.update(t, float(self._billed_nodes()))
            elif want < pending:
                excess = pending - want
                # cancel newest boots first — they have served nothing
                for bid in sorted(self._booting, reverse=True):
                    if excess <= 0:
                        break
                    ready, n = self._booting[bid]
                    cut = min(n, excess)
                    excess -= cut
                    if cut == n:
                        del self._booting[bid]
                    else:
                        self._booting[bid] = (ready, n - cut)
                if excess > 0:
                    self._nodes_live = max(cfg.min_nodes,
                                           self._nodes_live - excess)
                self._apply_capacity()

    # -- request lifecycle -------------------------------------------------

    def _next_job_id(self) -> int:
        self._job_seq += 1
        return self._job_seq

    def _submit_stage(self, state: _ReqState) -> None:
        stage = state.request.stages[state.stage_idx]
        job_id = self._next_job_id()
        spec = JobSpec(job_id=job_id, arrival=self.sim.now,
                       task_durations=stage.task_durations,
                       demand=stage.demand, user=state.request.tenant,
                       queue=state.request.tenant,
                       weight=state.stats.weight)
        self._states_by_job[job_id] = state
        state.job_ids.append(job_id)
        self.sched.submit(spec)

    def _source(self, spec: TenantSpec, requests: List[JobRequest]):
        stats = self.stats[spec.name]
        ctrl = self._admission[spec.name]
        reg = get_registry()
        for req in requests:
            if req.arrival > self.sim.now:
                yield self.sim.timeout(req.arrival - self.sim.now)
            stats.submitted += 1
            while True:
                admitted, shed, delay = ctrl.admit(
                    self.sim.now, 1, stats.inflight)
                if admitted:
                    if reg is not None:
                        reg.counter("serve.admitted").inc()
                    self._outstanding += 1
                    self._work_window += req.work
                    state = _ReqState(
                        request=req, stats=stats, t0=req.arrival,
                        session=self.cfg.retry.session(
                            key=f"{req.tenant}:{req.req_id}",
                            job=f"{req.tenant}:{req.req_id}"))
                    self._submit_stage(state)
                    break
                if delay > 0:       # delay-mode gate: wait and re-offer
                    yield self.sim.timeout(delay)
                    continue
                stats.rejected += 1
                if reg is not None:
                    reg.counter("serve.rejected").inc()
                break
        self._open_sources -= 1
        self._maybe_finish()

    def _on_job_done(self, job) -> None:
        state = self._states_by_job.get(job.spec.job_id)
        if state is None:
            return
        if state.failed:
            # already billed as failed when the budget blew; the final
            # clean attempt just drained the slot
            return
        if state.stage_idx + 1 < len(state.request.stages):
            state.stage_idx += 1
            self._submit_stage(state)
            return
        latency = self.sim.now - state.t0
        state.stats.record_completion(latency, state.request.work)
        reg = get_registry()
        if reg is not None:
            reg.counter("serve.completed").inc()
        self._settle(state)

    def _mark_failed(self, state: _ReqState) -> None:
        if state.failed:
            return
        state.failed = True
        state.stats.failed += 1
        reg = get_registry()
        if reg is not None:
            reg.counter("serve.failed").inc()
        self._settle(state)

    def _settle(self, state: _ReqState) -> None:
        self._outstanding -= 1
        self._maybe_finish()

    def _maybe_finish(self) -> None:
        if (not self._finished and self._open_sources == 0
                and self._outstanding == 0):
            self._finished = True
            self._done_ev.succeed(None)

    # -- attempt accounting -------------------------------------------------

    def _note_attempt(self, state: _ReqState) -> None:
        state.stats.attempts += 1

    def _note_retry(self, state: _ReqState) -> None:
        state.stats.retries += 1

    def _note_hedge(self, state: _ReqState, won: bool) -> None:
        state.stats.attempts += 1   # the backup is a real attempt
        state.stats.hedges += 1
        if won:
            state.stats.hedge_wins += 1
        reg = get_registry()
        if reg is not None:
            reg.counter("serve.hedges").inc()

    def _record_attempt_duration(self, state: _ReqState, dur: float) -> None:
        hist = self._attempt_hist[state.request.tenant]
        hist.append(dur)
        if len(hist) > 64:
            del hist[:len(hist) - 64]

    def _hedge_delay(self, state: _ReqState) -> Optional[float]:
        if self.cfg.hedge is None:
            return None
        return self.cfg.hedge.delay(self._attempt_hist[state.request.tenant])

    # -- driver --------------------------------------------------------------

    def run(self) -> ServeReport:
        cfg = self.cfg
        self._billed.update(0.0, float(self._billed_nodes()))
        self._cap_tw.update(0.0, self.sched.capacity.cpus)
        id_base = 0
        for spec in self.tenants:
            reqs = self._requests_for(spec, id_base)
            # wide per-tenant id stride: clones from load bursts must
            # never collide with the next tenant's block
            id_base += 1_000_000
            self._open_sources += 1
            self.sim.process(self._source(spec, reqs),
                             name=f"source:{spec.name}")
        self.sim.process(self._autoscaler(), name="autoscaler")
        if any(e.kind == "task_crash" for e in self.plan):
            self.sim.process(self._crash_feeder(), name="chaos:crash")
        for ev in self.plan:
            if ev.kind == "node_fail":
                self.sim.process(self._node_failure(ev), name="chaos:node")
        self.sim.run_until_done(self._done_ev)
        makespan = self.sim.now
        report = ServeReport(
            tenants=self.stats,
            makespan=makespan,
            modeled_users=sum(t.users for t in self.tenants),
            sample_frac=cfg.sample_frac,
            node_seconds=self._billed.average(makespan) * makespan,
            scale_holds=self._autoscale.held_decisions,
            cpu_utilization=(
                self.sched._busy.average(makespan)
                / max(self._cap_tw.average(makespan), 1e-12)),
        )
        return report


def run_gateway(tenants: Sequence[TenantSpec], config: ServeConfig,
                plan: Optional[FaultPlan] = None) -> ServeReport:
    """One-call helper: build the gateway, run it, return the report."""
    return ServeGateway(tenants, config, plan=plan).run()
