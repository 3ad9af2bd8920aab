"""Thin per-layer injection adapters for :class:`~repro.chaos.plan.FaultPlan`.

Each adapter translates the relevant subset of one plan into its layer's
native fault mechanism:

* :class:`ClusterChaos`   — node crash/repair and straggler (slow-node)
  injection on a :class:`~repro.cluster.cluster.Cluster`, the one way a
  run gets node churn (a renewal plan's ``node_fail`` events);
* :class:`EngineChaos`    — task-attempt crashes (via ``SimEngine.fault_hook``),
  lost shuffle partitions (via ``SimEngine.drop_map_outputs``), and silent
  shuffle corruption (via ``SimEngine.corrupt_map_outputs``);
* :class:`DFSChaos`       — lost DFS block replicas / EC fragments with
  chargeable re-protection, and silent replica/fragment corruption
  (``data_corrupt`` → ``DistributedFS.corrupt_piece``), on top of the
  DFS's own node-failure repair;
* :func:`operator_crash_times` / :func:`snapshot_corrupt_times` —
  streaming operator crashes and checkpoint-snapshot corruption for
  :func:`~repro.streaming.checkpoint.run_stateful_stream`;
* :func:`burst_rate` / :func:`burst_series` — load bursts for the
  micro-batch engine and the autoscaling fluid simulator.

Every actual injection is appended to an :class:`InjectionTrace`; the
recovery-equivalence oracle replays a scenario twice and asserts the two
traces are identical, which is the machine check of the determinism
contract.  Adapters with no matching events in the plan schedule nothing
and cost nothing — ``measure_overhead("chaos_overhead")`` in
:mod:`repro.bench.perfsuite` measures exactly that, and the p0 bench's
guards bound it.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from ..cluster.cluster import Cluster
from ..simcore.kernel import Simulator
from .plan import FaultPlan

__all__ = [
    "InjectionTrace", "sleep_until", "ClusterChaos", "EngineChaos",
    "DFSChaos", "operator_crash_times", "snapshot_corrupt_times",
    "burst_rate", "burst_series",
]


def sleep_until(sim: Simulator, t: float):
    """Timeout event that fires at absolute sim time ``t`` (or now if past).

    Every injection process sleeps through this one helper rather than
    hand-rolling ``timeout(max(0.0, ev.time - sim.now))``.  Events whose
    scheduled time is already past all collapse to a zero-delay timeout
    at ``t == now``; because the kernel orders same-time events by
    schedule sequence and injection processes are spawned in plan order,
    they still fire in plan order — a property pinned by the
    same-timestamp regression test in ``tests/chaos/test_adapters.py``.
    """
    return sim.timeout(max(0.0, t - sim.now))


class InjectionTrace:
    """Ordered record of the faults a run actually experienced.

    Entries are ``(sim_time, what, detail)`` tuples.  ``signature()`` is
    hashable so two runs of the same plan can be compared exactly.
    """

    def __init__(self) -> None:
        self.entries: List[Tuple[float, str, str]] = []

    def record(self, time: float, what: str, detail: str = "") -> None:
        """Append one injection record."""
        self.entries.append((round(float(time), 9), what, str(detail)))

    def signature(self) -> Tuple[Tuple[float, str, str], ...]:
        """Hashable identity of the whole trace."""
        return tuple(self.entries)

    def count(self, what: str) -> int:
        """Number of entries of one kind."""
        return sum(1 for _, w, _d in self.entries if w == what)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<InjectionTrace {len(self.entries)} entries>"


class ClusterChaos:
    """Inject ``node_fail`` and ``slow_node`` events into a cluster.

    Node failures with ``duration > 0`` recover after that long; a fault
    that would kill the *last* live node is skipped (and recorded as
    skipped) so the substrate always retains liveness — recovery
    equivalence is only defined for runs that can finish.  Slow-node
    events compose multiplicatively with any existing speed factor and
    restore it afterwards.
    """

    def __init__(self, cluster: Cluster, plan: FaultPlan,
                 trace: Optional[InjectionTrace] = None) -> None:
        self.cluster = cluster
        self.sim: Simulator = cluster.sim
        self.plan = plan
        self.trace = trace if trace is not None else InjectionTrace()

    def start(self) -> int:
        """Schedule all cluster-level faults; returns how many."""
        rng = self.plan.rng("cluster")
        names = self.cluster.node_names
        n = 0
        for ev in self.plan:
            if ev.kind not in ("node_fail", "slow_node"):
                continue
            target = ev.target or str(rng.choice(names))
            body = self._fail if ev.kind == "node_fail" else self._slow
            self.sim.process(body(ev, target),
                             name=f"chaos:{ev.kind}:{target}@{ev.time:g}")
            n += 1
        return n

    def _fail(self, ev, target: str):
        yield sleep_until(self.sim, ev.time)
        node = self.cluster.nodes[target]
        others_live = [nd for nd in self.cluster.live_nodes()
                       if nd.name != target]
        if not node.alive or not others_live:
            self.trace.record(self.sim.now, "node_fail_skipped", target)
            return
        node.fail()
        self.trace.record(self.sim.now, "node_fail", target)
        if ev.duration > 0:
            yield self.sim.timeout(ev.duration)
            if not node.alive:
                node.recover()
                self.trace.record(self.sim.now, "node_recover", target)

    def _slow(self, ev, target: str):
        yield sleep_until(self.sim, ev.time)
        node = self.cluster.nodes[target]
        node.set_speed_factor(node.speed_factor * ev.magnitude)
        self.trace.record(self.sim.now, "slow_node",
                          f"{target}x{ev.magnitude:g}")
        if ev.duration > 0:
            yield self.sim.timeout(ev.duration)
            node.set_speed_factor(node.speed_factor / ev.magnitude)
            self.trace.record(self.sim.now, "slow_node_end", target)


class EngineChaos:
    """Inject ``task_crash``, ``lost_shuffle``, and ``data_corrupt``
    faults into a SimEngine.

    Task crashes arm a budget at each event's time; the engine's
    ``fault_hook`` then fails the next ``magnitude`` task attempts to
    start (they retry through the normal failure path).  Lost-shuffle
    events silently delete registered map outputs so reduce tasks hit
    :class:`~repro.dataflow.engine.MissingShuffleError` and lineage
    recovery re-runs exactly the dropped maps.  Data-corrupt events rot
    registered map-output buckets in place — *nothing* fails loudly; the
    engine's sealed fetch path detects the damage and recovers through
    the same lineage machinery.
    """

    def __init__(self, engine, plan: FaultPlan,
                 trace: Optional[InjectionTrace] = None) -> None:
        self.engine = engine
        self.sim: Simulator = engine.sim
        self.plan = plan
        self.trace = trace if trace is not None else InjectionTrace()
        self._crash_budget = 0
        self._rng = plan.rng("engine.lost_shuffle")
        self._corrupt_rng = plan.rng("engine.data_corrupt")

    def start(self) -> int:
        """Arm the hook and schedule all engine-level faults."""
        relevant = [ev for ev in self.plan
                    if ev.kind in ("task_crash", "lost_shuffle",
                                   "data_corrupt")]
        if any(ev.kind == "task_crash" for ev in relevant):
            self.engine.fault_hook = self._hook
        for ev in relevant:
            self.sim.process(self._arm(ev),
                             name=f"chaos:{ev.kind}@{ev.time:g}")
        return len(relevant)

    def _hook(self, stage, split: int, node: str) -> bool:
        if self._crash_budget <= 0:
            return False
        self._crash_budget -= 1
        self.trace.record(self.sim.now, "task_crash",
                          f"s{stage.stage_id}p{split}@{node}")
        return True

    def _arm(self, ev):
        yield sleep_until(self.sim, ev.time)
        if ev.kind == "task_crash":
            self._crash_budget += max(1, int(ev.magnitude))
            self.trace.record(self.sim.now, "task_crash_armed",
                              str(max(1, int(ev.magnitude))))
            return
        if ev.kind == "data_corrupt":
            hit = self.engine.corrupt_map_outputs(
                max(1, int(ev.magnitude)), rng=self._corrupt_rng)
            for sid, m, r in hit:
                self.trace.record(self.sim.now, "data_corrupt",
                                  f"s{sid}m{m}r{r}")
            if not hit:
                self.trace.record(self.sim.now, "data_corrupt_skipped", "")
            return
        dropped = self.engine.drop_map_outputs(max(1, int(ev.magnitude)),
                                               rng=self._rng)
        for sid, m in dropped:
            self.trace.record(self.sim.now, "lost_shuffle", f"s{sid}m{m}")
        if not dropped:
            self.trace.record(self.sim.now, "lost_shuffle_skipped", "")


class DFSChaos:
    """Inject ``lost_block`` and ``data_corrupt`` faults into a
    :class:`DistributedFS`.

    A victim block (and slot) is chosen via the plan's child RNG among
    blocks that stay readable after the fault — one clean replica of at
    least two clean live copies, or one clean fragment while more than
    ``k`` clean live fragments remain.  A *lost* piece is re-protected
    through the DFS's own repair machinery after ``detection_delay``,
    with the repair traffic charged as usual.  A *corrupted* piece stays
    silently in place — the checksummed read path (or the scrubber)
    detects it, quarantines the copy, and repairs from clean sources.
    Node failures are :class:`ClusterChaos` business; the DFS already
    watches those itself.
    """

    def __init__(self, dfs, plan: FaultPlan,
                 trace: Optional[InjectionTrace] = None) -> None:
        self.dfs = dfs
        self.sim: Simulator = dfs.sim
        self.plan = plan
        self.trace = trace if trace is not None else InjectionTrace()
        self._rng = plan.rng("dfs.lost_block")
        self._corrupt_rng = plan.rng("dfs.data_corrupt")

    def start(self) -> int:
        """Schedule all lost-block / data-corrupt faults; returns how many."""
        n = 0
        for ev in self.plan:
            if ev.kind == "lost_block":
                self.sim.process(self._lose(ev),
                                 name=f"chaos:lost_block@{ev.time:g}")
                n += 1
            elif ev.kind == "data_corrupt":
                self.sim.process(self._corrupt(ev),
                                 name=f"chaos:data_corrupt@{ev.time:g}")
                n += 1
        return n

    def _corrupt(self, ev):
        yield sleep_until(self.sim, ev.time)
        dfs = self.dfs
        rng = self._corrupt_rng
        for _ in range(max(1, int(ev.magnitude))):
            candidates = []
            for _bid, block in sorted(dfs._blocks.items()):
                slots = self._droppable_slots(block)
                if slots:
                    candidates.append((block, slots))
            if not candidates:
                self.trace.record(self.sim.now, "data_corrupt_skipped", "")
                continue
            block, slots = candidates[int(rng.integers(len(candidates)))]
            slot = slots[int(rng.integers(len(slots)))]
            off = dfs.corrupt_piece(block.block_id, slot, rng=rng)
            self.trace.record(self.sim.now, "data_corrupt",
                              f"b{block.block_id}s{slot}@{off}")

    def _droppable_slots(self, block) -> List[int]:
        """The clean live slots of ``block`` when one may be dropped or
        rotted and the block stays readable, else none."""
        dfs = self.dfs
        clean = [s for s, node in sorted(block.locations.items())
                 if dfs.cluster.nodes[node].alive
                 and dfs._piece_clean(block.block_id, s)]
        need = 2 if block.mode == "replicate" else dfs.codec.k + 1
        return clean if len(clean) >= need else []

    def _lose(self, ev):
        yield sleep_until(self.sim, ev.time)
        dfs = self.dfs
        candidates = []
        for _bid, block in sorted(dfs._blocks.items()):
            slots = self._droppable_slots(block)
            if slots:
                candidates.append((block, slots))
        if not candidates:
            self.trace.record(self.sim.now, "lost_block_skipped", "")
            return
        block, slots = candidates[int(self._rng.integers(len(candidates)))]
        slot = slots[int(self._rng.integers(len(slots)))]
        del block.locations[slot]
        dfs._content.pop((block.block_id, slot), None)
        dfs._seals.pop((block.block_id, slot), None)
        self.trace.record(self.sim.now, "lost_block",
                          f"b{block.block_id}s{slot}")
        # re-protect through the DFS's own repair path, like the
        # failure watcher does after its detection delay
        yield self.sim.timeout(dfs.config.detection_delay)
        yield from dfs._repair_piece(block, slot)
        self.trace.record(self.sim.now, "block_repaired",
                          f"b{block.block_id}s{slot}")


def operator_crash_times(plan: FaultPlan) -> List[float]:
    """Event-time crash instants for ``run_stateful_stream``.

    The streaming adapter is this translation: ``operator_crash`` events
    map onto the checkpointing engine's native ``crash_times``.
    """
    return [ev.time for ev in plan if ev.kind == "operator_crash"]


def snapshot_corrupt_times(plan: FaultPlan) -> List[float]:
    """Snapshot-corruption instants for the streaming runs.

    ``data_corrupt`` events map onto ``corrupt_times`` of
    :func:`~repro.streaming.checkpoint.run_stateful_stream` /
    ``run_windowed_stream``; each rots the newest intact (sealed)
    checkpoint snapshot at that event time.
    """
    return [ev.time for ev in plan if ev.kind == "data_corrupt"]


def burst_rate(rate_fn: Callable[[float], float],
               plan: FaultPlan) -> Callable[[float], float]:
    """Wrap an offered-rate function with the plan's ``load_burst`` events.

    During ``[time, time + duration)`` the base rate is multiplied by the
    event's magnitude; overlapping bursts compose multiplicatively.  With
    no burst events the base function is returned unwrapped, so an empty
    plan adds zero per-call overhead.
    """
    bursts = [ev for ev in plan if ev.kind == "load_burst"]
    if not bursts:
        return rate_fn

    def wrapped(t: float) -> float:
        r = rate_fn(t)
        for ev in bursts:
            if ev.time <= t < ev.time + ev.duration:
                r *= ev.magnitude
        return r
    return wrapped


def burst_series(load: Sequence[float], plan: FaultPlan,
                 dt: float = 1.0) -> np.ndarray:
    """Apply ``load_burst`` events to a discrete load trace (autoscaler)."""
    out = np.asarray(load, dtype=np.float64).copy()
    t = np.arange(len(out)) * dt
    for ev in plan:
        if ev.kind != "load_burst":
            continue
        mask = (t >= ev.time) & (t < ev.time + ev.duration)
        out[mask] *= ev.magnitude
    return out
