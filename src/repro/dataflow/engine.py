"""The simulated distributed execution engine.

Runs dataflow plans on a :class:`~repro.cluster.cluster.Cluster`: tasks
occupy core slots on simulated nodes, inputs and shuffle blocks move over
the simulated network, and map outputs land on simulated disks — while the
*data itself is computed for real* in this process, so results are
byte-identical to the local executor's (tests assert this).

Implements the full Spark-style execution model:

* stage-by-stage DAG execution with per-stage task scheduling,
* delay scheduling for data locality (node-local → rack-local → any),
* lineage-based fault recovery — a lost node invalidates only the map
  outputs and cache entries it held; exactly those partitions re-run,
* speculative execution of straggler tasks,
* in-memory dataset caching with remote cache fetches.
"""

from __future__ import annotations

import zlib
from collections import deque, namedtuple
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from ..cluster.cluster import Cluster
from ..cluster.node import Node
from ..common.errors import (
    ChecksumError,
    DataflowError,
    DeadlineExceededError,
    RetryBudgetExhaustedError,
    TaskFailedError,
)
from ..obs import metrics as obs_metrics
from ..obs import trace as obs_trace
from ..resilience import (Deadline, ResiliencePolicies, RetryPolicy,
                          RetrySession)
from ..simcore.events import Event
from ..simcore.kernel import Simulator
from ..simcore.resources import Store
from ..storage import integrity
from .costmodel import CostModel, SizeEstimator
from .plan import Dataset, ShuffleDependency, TaskRuntime
from .shuffleio import (count_sink_fallback, open_bucket, run_map_task,
                        seal_buckets)
# perfbench/spans.py wraps this module-level name; nothing here calls it
from .shuffleio import write_buckets  # noqa: F401
from .stages import (
    Stage,
    build_stages,
    fusion_groups,
    narrow_op_depth,
    source_record_count,
    topo_order,
)

__all__ = ["EngineConfig", "SimEngine", "JobMetrics", "JobResult",
           "DEFAULT_TASK_RETRY"]

#: Retry policy of a job whose config names none: a task may fail four
#: times and is retried at once; its fifth failure fails the job.
DEFAULT_TASK_RETRY = RetryPolicy(max_attempts=5)


#: Speculation backs up an attempt once this fraction of its stage has
#: finished and it has run this multiple of their median duration.
SPECULATION_MIN_FRAC = 0.5
SPECULATION_MULTIPLIER = 1.5


class MissingShuffleError(DataflowError):
    """A reduce task found map outputs gone (node loss); triggers recovery."""

    def __init__(self, shuffle_id: int, missing: List[int]) -> None:
        super().__init__(f"shuffle {shuffle_id} missing maps {missing}")
        self.shuffle_id = shuffle_id
        self.missing = missing


@dataclass(frozen=True)
class EngineConfig:
    """Engine behaviour knobs (each maps to a published mechanism)."""

    locality_wait: float = 0.0          # delay-scheduling wait per level (s)
    speculation: bool = False
    check_interval: float = 0.25         # scheduler poll period (s); idle
    # stages wait purely on the task inbox, so a stage with everything
    # launched and nothing to speculate creates zero timer events
    executor_memory: float = float("inf")   # bytes a task may hold in RAM;
    # shuffle input beyond it spills (one disk write + read of the excess)
    resilience: Optional[ResiliencePolicies] = None
    # policy bundle (retry budget + backoff, hedging, per-job deadline);
    # without a retry policy every job runs under DEFAULT_TASK_RETRY


@dataclass
class JobMetrics:
    """Everything a job measured, for the experiment harnesses."""

    start: float = 0.0
    end: float = 0.0
    n_tasks: int = 0
    n_failed_attempts: int = 0
    n_recovered_maps: int = 0          # lineage re-executions
    n_speculative: int = 0
    n_spec_wins: int = 0
    shuffle_bytes: float = 0.0         # fetched over the network
    input_fetch_bytes: float = 0.0     # non-local source reads
    broadcast_bytes: float = 0.0       # broadcast blocks shipped to nodes
    spill_bytes: float = 0.0           # shuffle input spilled to disk
    locality_node: int = 0
    locality_rack: int = 0
    locality_any: int = 0
    fused_segments: int = 0            # narrow-op runs executed as one
    # fused pipeline across all stages (0 when fusion is disabled)
    pool_prefetched: int = 0           # partitions precomputed on the
    # process pool before simulated placement (pool backend only)
    pool_prefetch_fallbacks: int = 0   # failed prefetches, computed inline
    combine_sink_fallbacks: Dict[str, int] = field(default_factory=dict)
    # map tasks of map-side-combining shuffles that could not fold into a
    # compiled combine sink, by shuffleio.SINK_FALLBACKS reason
    task_durations: List[float] = field(default_factory=list)

    @property
    def duration(self) -> float:
        """Job wall-clock in simulated seconds."""
        return self.end - self.start

    @property
    def locality_fraction(self) -> float:
        """Fraction of locality-constrained tasks that ran node-local."""
        total = self.locality_node + self.locality_rack + self.locality_any
        return self.locality_node / total if total else 1.0


@dataclass
class JobResult:
    """Value + metrics delivered by the job completion event."""

    value: Any
    metrics: JobMetrics


class _MapOutput:
    """One map output: with ``ExecOptions.checksums`` on, ``buckets`` are
    :func:`~repro.storage.integrity.seal_object` blobs (the spill-file
    format) and ``seals`` their Seals; off, record lists and None."""

    __slots__ = ("node", "buckets", "bucket_bytes", "seals")

    def __init__(self, node: str, buckets: List,
                 bucket_bytes: List[float],
                 seals: Optional[List[integrity.Seal]] = None) -> None:
        self.node = node
        self.buckets = buckets
        self.bucket_bytes = bucket_bytes
        self.seals = seals

    def rotten(self) -> List[int]:
        """Reduce ids whose blob fails its seal (CRC only, no unpickle)."""
        if self.seals is None:
            return []
        bad = []
        for r, (blob, s) in enumerate(zip(self.buckets, self.seals)):
            try:
                integrity.verify(blob, s)
            except ChecksumError:
                bad.append(r)
        return bad


class _CacheEntry:
    __slots__ = ("node", "records", "nbytes")

    def __init__(self, node: str, records: List, nbytes: float) -> None:
        self.node = node
        self.records = records
        self.nbytes = nbytes


class _SimRuntime(TaskRuntime):
    """Per-task runtime: serves shuffle/cache data, records fetch charges."""

    def __init__(self, engine: "SimEngine", node: str) -> None:
        self.engine = engine
        self.node = node
        self.fetches: List[Tuple[str, float]] = []   # (src node, bytes)
        self.records_in = 0

    def fetch_shuffle(self, shuffle_id: int, reduce_id: int):
        eng = self.engine
        outputs = eng._map_outputs.get(shuffle_id, {})
        n_maps = eng._shuffle_nmaps[shuffle_id]
        missing = [m for m in range(n_maps)
                   if m not in outputs
                   or not eng.cluster.nodes[outputs[m].node].alive]
        if missing:
            raise MissingShuffleError(shuffle_id, missing)
        out: List = []
        for m in range(n_maps):
            mo = outputs[m]
            try:
                recs = open_bucket(mo.buckets, mo.seals, reduce_id,
                                   layer="shuffle.mem",
                                   path=f"s{shuffle_id}m{m}r{reduce_id}")
            except ChecksumError:
                # detected: count this bucket, count the map output's
                # *other* corrupt buckets as discarded-unread, drop the
                # whole output, and let lineage recovery re-run map m
                eng._record_integrity_detection(shuffle_id, m, reduce_id)
                eng._audit_discard(mo, skip=reduce_id)
                del outputs[m]
                raise MissingShuffleError(shuffle_id, [m])
            out.extend(recs)
            self.records_in += len(recs)
            self.fetches.append((mo.node, mo.bucket_bytes[reduce_id]))
        return out

    def cache_get(self, dataset: Dataset, split: int):
        entry = self.engine._cache.get((dataset.dataset_id, split))
        if entry is None or not self.engine.cluster.nodes[entry.node].alive:
            return None
        self.fetches.append((entry.node, entry.nbytes))
        return entry.records

    def cache_put(self, dataset: Dataset, split: int, records: List) -> None:
        nbytes = self.engine._size_est.estimate(
            ("cache", dataset.dataset_id), records)
        self.engine._cache[(dataset.dataset_id, split)] = _CacheEntry(
            self.node, records, nbytes)


#: A kind of duplicate attempt: the :class:`JobMetrics` fields that count
#: its launches and wins, and the registry prefix of its ``.launched`` /
#: ``.wins`` counters and ``.launch`` trace instant.
_Backup = namedtuple("_Backup", "launches wins registry")
SPECULATIVE = _Backup("n_speculative", "n_spec_wins", None)
HEDGED = _Backup(None, None, "resilience.hedge")


class _Attempt:
    __slots__ = ("split", "node", "started", "alive", "backup",
                 "released", "span", "_inbox")

    def __init__(self, split: int, node: str, started: float,
                 backup: Optional[_Backup] = None) -> None:
        self.split = split
        self.node = node
        self.started = started
        self.alive = True
        self.backup = backup     # None for a first attempt or a retry
        # slot accounting is idempotent: True once this attempt's core slot
        # has been given back (or died with its node)
        self.released = False
        self.span: Optional[int] = None      # trace span id when tracing
        self._inbox: Optional[Store] = None


class _TaskResult:
    __slots__ = ("split", "node", "ok", "error", "value", "duration",
                 "attempt", "acc_stashes")

    def __init__(self, split: int, node: str, ok: bool, error: Any,
                 value: Any, duration: float, attempt: _Attempt,
                 acc_stashes=None) -> None:
        self.split = split
        self.node = node
        self.ok = ok
        self.error = error
        self.value = value
        self.duration = duration
        self.attempt = attempt
        self.acc_stashes = acc_stashes or []


class SimEngine:
    """Distributed dataflow execution on the simulated cluster.

    >>> engine = SimEngine(cluster, config=EngineConfig(speculation=True))
    >>> ev = engine.collect(dataset)
    >>> result = cluster.sim.run_until_done(ev)   # JobResult
    """

    def __init__(self, cluster: Cluster,
                 config: Optional[EngineConfig] = None,
                 cost_model: Optional[CostModel] = None) -> None:
        self.cluster = cluster
        self.sim: Simulator = cluster.sim
        self.config = config or EngineConfig()
        self.cost = cost_model or CostModel()
        self._size_est = SizeEstimator(self.cost)
        self._map_outputs: Dict[int, Dict[int, _MapOutput]] = {}
        self._shuffle_nmaps: Dict[int, int] = {}
        self._cache: Dict[Tuple[int, int], _CacheEntry] = {}
        self._free_slots: Dict[str, int] = {
            name: node.spec.cores for name, node in cluster.nodes.items()}
        # broadcast id -> nodes that already hold the block
        self._bc_on_node: Dict[int, Set[str]] = {}
        # insertion-ordered on purpose: _Attempt hashes by identity, and a
        # set here would fail a dead node's attempts in memory-address
        # order — nondeterministic across runs (exposed by the chaos
        # harness's trace-determinism oracle)
        self._running_by_node: Dict[str, Dict[_Attempt, None]] = {}
        # (dataset_id, split) -> records precomputed on the process pool;
        # entries are popped by the first attempt that reaches compute
        self._prefetched: Dict[Tuple[int, int], List] = {}
        #: chaos hook: called as ``fault_hook(stage, split, node_name)`` at
        #: task start; returning True crashes that attempt (it fails and is
        #: retried like any task failure).  None (the default) costs one
        #: attribute check per task — nothing when no chaos is attached.
        self.fault_hook: Optional[Callable[[Stage, int, str], bool]] = None
        # integrity accounting (see chaos.oracle.check_integrity): every
        # injected corruption is either *detected* at a reduce fetch or
        # *latent_discarded* when its map output dies unread; what is left
        # shows up in audit_shuffle_integrity().  The identity
        # ``injected == detected + latent_discarded + latent_remaining``
        # is what the oracle holds exact.
        self.integrity_detected = 0
        self.integrity_latent_discarded = 0
        for node in cluster.nodes.values():
            node.listeners.append(self._on_node_event)

    # ----------------------------------------------------------------- API

    def collect(self, ds: Dataset) -> Event:
        """Run the plan; event fires with JobResult(list of records)."""
        return self.run_job(ds, lambda parts: [x for p in parts for x in p])

    def count(self, ds: Dataset) -> Event:
        """Run the plan; event fires with JobResult(record count)."""
        return self.run_job(ds, lambda parts: sum(parts), per_partition=len)

    def reduce(self, ds: Dataset, f: Callable[[Any, Any], Any]) -> Event:
        """Run the plan; event fires with JobResult(folded value)."""
        def finish(parts: List) -> Any:
            acc = None
            seen = False
            for p in parts:
                for x in ([p] if not isinstance(p, list) else p):
                    acc = x if not seen else f(acc, x)
                    seen = True
            if not seen:
                raise DataflowError("reduce() on empty dataset")
            return acc

        def per_part(records: List) -> List:
            if not records:
                return []
            acc = records[0]
            for x in records[1:]:
                acc = f(acc, x)
            return [acc]
        return self.run_job(ds, finish, per_partition=per_part)

    def _map_output_victims(self, n: int,
                            rng: Any) -> List[Tuple[int, int]]:
        """Up to ``n`` registered ``(shuffle_id, map_id)`` pairs, in order:
        drawn by ``rng`` when given, else the lowest pairs."""
        keys = [(sid, m) for sid, outs in sorted(self._map_outputs.items())
                for m in sorted(outs)]
        if not keys:
            return []
        n = max(0, min(int(n), len(keys)))
        if rng is None:
            return keys[:n]
        idx = sorted(rng.permutation(len(keys))[:n].tolist())
        return [keys[i] for i in idx]

    def drop_map_outputs(self, n: int = 1,
                         rng: Any = None) -> List[Tuple[int, int]]:
        """Chaos hook: silently drop up to ``n`` registered map outputs.

        Models external-shuffle-service loss / disk corruption that node
        death does not: the owning node stays alive but the shuffle data
        is gone.  Reduce tasks discover the hole via
        :class:`MissingShuffleError` and lineage recovery re-runs exactly
        the dropped maps.  ``rng`` (a numpy Generator) picks victims;
        without one the lowest (shuffle_id, map_id) pairs are dropped.
        Returns the dropped pairs.
        """
        chosen = self._map_output_victims(n, rng)
        for sid, m in chosen:
            self._audit_discard(self._map_outputs[sid][m])
            del self._map_outputs[sid][m]
        return chosen

    def corrupt_map_outputs(self, n: int = 1,
                            rng: Any = None) -> List[Tuple[int, int, int]]:
        """Chaos hook: silently corrupt up to ``n`` map-output buckets.

        Models bit-rot in shuffle data the loud fault kinds cannot: the
        bytes stay present and the owning node stays alive, but one
        bucket's blob is wrong: :func:`~repro.storage.integrity.flip_byte`
        flips a byte at an offset derived from the victim and the
        simulated time.  The next reduce fetch detects it and re-runs
        exactly that map.  Only a *clean* bucket of a *sealed* output
        rots, so each injection is detected or audited exactly once;
        unsealed outputs (live lists, no bytes) and outputs with no clean
        bucket left are skipped.  ``rng`` (a numpy Generator) picks
        victims and a bucket each, stepping past rotten buckets to the
        next clean one; without it the lowest (shuffle_id, map_id) pairs
        rot, first clean bucket each.  Returns the corrupted
        ``(shuffle_id, map_id, reduce_id)`` triples.
        """
        hit: List[Tuple[int, int, int]] = []
        for sid, m in self._map_output_victims(n, rng):
            mo = self._map_outputs[sid][m]
            n_out, rotten = len(mo.buckets), mo.rotten()
            if mo.seals is None or len(rotten) == n_out:
                continue
            r = int(rng.integers(n_out)) if rng is not None else 0
            while r in rotten:          # step to the next clean bucket
                r = (r + 1) % n_out
            where = f"s{sid}m{m}r{r}@{self.sim.now:.6f}"
            mo.buckets[r] = integrity.flip_byte(
                mo.buckets[r], zlib.crc32(where.encode()))
            hit.append((sid, m, r))
        return hit

    def audit_shuffle_integrity(self) -> List[Tuple[int, int, int]]:
        """Latent-corruption audit over the registered map outputs.

        Re-verifies every sealed bucket and returns the corrupt
        ``(shuffle_id, map_id, reduce_id)`` triples — corruption that was
        injected but never read (and never discarded).  Counts nothing
        and charges no simulated cost; the chaos oracle uses it to close
        the injected-vs-accounted identity.
        """
        return [(sid, m, r)
                for sid, outs in sorted(self._map_outputs.items())
                for m, mo in sorted(outs.items())
                for r in mo.rotten()]

    def run_job(self, ds: Dataset,
                finalize: Callable[[List], Any],
                per_partition: Optional[Callable[[List], Any]] = None) -> Event:
        """Execute the plan for ``ds``; ``finalize`` folds partition values.

        ``per_partition`` optionally reduces each result partition on the
        executor before "shipping" it to the driver (count/reduce use it).
        """
        done = self.sim.event()
        self.sim.process(self._job_proc(ds, finalize, per_partition, done),
                         name=f"job:ds{ds.dataset_id}")
        return done

    # ------------------------------------------------------------ job loop

    def _job_proc(self, ds: Dataset, finalize, per_partition, done: Event):
        metrics = JobMetrics(start=self.sim.now)
        pol = self.config.resilience
        retry = (pol.retry if pol is not None else None) or DEFAULT_TASK_RETRY
        session = retry.session(key=f"ds{ds.dataset_id}",
                                job=f"ds{ds.dataset_id}")
        if pol is not None and pol.deadline_timeout is not None:
            deadline = Deadline.after(self.sim.now, pol.deadline_timeout)
            self.sim.process(self._deadline_watchdog(deadline, done, ds),
                             name=f"deadline:ds{ds.dataset_id}")
        result_stage = build_stages(ds)
        stages = topo_order(result_stage)
        if ds.ctx.options.fusion:
            metrics.fused_segments = sum(
                1 for s in stages for g in fusion_groups(s.dataset)
                if len(g) > 1)
        stage_by_shuffle: Dict[int, Stage] = {
            s.shuffle_dep.shuffle_id: s for s in stages if not s.is_result}
        tr = obs_trace.get_tracer()
        job_span = None
        if tr is not None:
            job_span = tr.begin("job", self.sim.now, lane=("engine", "driver"),
                                cat="job", dataset_id=ds.dataset_id,
                                n_stages=len(stages))
        try:
            for stage in stages:
                if stage.is_result:
                    values = yield from self._run_stage(
                        stage, metrics, stage_by_shuffle, per_partition,
                        session, parent_span=job_span)
                else:
                    yield from self._run_stage(
                        stage, metrics, stage_by_shuffle, None, session,
                        parent_span=job_span)
            parts = [values[i] for i in range(result_stage.n_tasks)]
            metrics.end = self.sim.now
            self._mirror_metrics(metrics)
            self._end_span(job_span, outcome="ok")
            if not done.triggered:     # a deadline may have fired first
                done.succeed(JobResult(finalize(parts), metrics))
        except DataflowError as exc:
            metrics.end = self.sim.now
            self._mirror_metrics(metrics)
            self._end_span(job_span, outcome=type(exc).__name__)
            if not done.triggered:
                done.fail(exc)

    def _deadline_watchdog(self, deadline: Deadline, done: Event,
                           ds: Dataset):
        """Fail the job event, typed, the instant its deadline passes."""
        yield self.sim.timeout(deadline.remaining(self.sim.now))
        if done.triggered:
            return
        reg = obs_metrics.get_registry()
        if reg is not None:
            reg.counter("resilience.deadline_exceeded").inc()
        tr = obs_trace.get_tracer()
        if tr is not None:
            tr.instant("resilience.deadline", self.sim.now,
                       lane=("engine", "driver"), cat="resilience",
                       dataset_id=ds.dataset_id)
        done.fail(DeadlineExceededError(
            deadline=deadline.expires_at, now=self.sim.now,
            op=f"ds{ds.dataset_id}"))

    def _end_span(self, span: Optional[int], **attrs: Any) -> None:
        tr = obs_trace.get_tracer()
        if tr is not None and span is not None:
            tr.end(span, self.sim.now, **attrs)

    def _mirror_metrics(self, metrics: JobMetrics) -> None:
        """Fold a finished job's JobMetrics into the global registry.

        ``JobMetrics`` stays the per-job API; the registry (when enabled)
        aggregates across jobs with typed, conservation-checkable metrics.
        """
        reg = obs_metrics.get_registry()
        if reg is None:
            return
        reg.counter("engine.jobs").inc()
        reg.counter("engine.tasks").inc(metrics.n_tasks)
        reg.counter("engine.failed_attempts").inc(metrics.n_failed_attempts)
        reg.counter("engine.recovered_maps").inc(metrics.n_recovered_maps)
        reg.counter("engine.speculative_launches").inc(metrics.n_speculative)
        reg.counter("engine.speculative_wins").inc(metrics.n_spec_wins)
        reg.counter("engine.shuffle_fetch_bytes").inc(metrics.shuffle_bytes)
        reg.counter("engine.input_fetch_bytes").inc(metrics.input_fetch_bytes)
        reg.counter("engine.broadcast_bytes").inc(metrics.broadcast_bytes)
        reg.counter("engine.spill_bytes").inc(metrics.spill_bytes)
        reg.counter("engine.fused_segments").inc(metrics.fused_segments)
        for reason, n in sorted(metrics.combine_sink_fallbacks.items()):
            count_sink_fallback(reason, n)
        reg.counter("engine.locality.node").inc(metrics.locality_node)
        reg.counter("engine.locality.rack").inc(metrics.locality_rack)
        reg.counter("engine.locality.any").inc(metrics.locality_any)
        hist = reg.histogram("engine.task_seconds")
        for d in metrics.task_durations:
            hist.observe(d)

    def _splits_to_run(self, stage: Stage,
                       splits: Optional[Sequence[int]]) -> List[int]:
        if splits is not None:
            return list(splits)
        if stage.is_result:
            return list(range(stage.n_tasks))
        sid = stage.shuffle_dep.shuffle_id
        outputs = self._map_outputs.get(sid, {})
        return [
            s for s in range(stage.n_tasks)
            if s not in outputs or not self.cluster.nodes[outputs[s].node].alive
        ]

    def _pool_pure_dataset(self, ds: Dataset,
                           seen: Optional[Set[int]] = None) -> bool:
        """Whether ``ds`` is computable from source data alone: nothing
        reachable is a shuffle input or a cached dataset, so a pool
        worker produces byte-identical records with zero engine-visible
        side effects (no fetches to charge, no cache to populate)."""
        if seen is None:
            seen = set()
        if ds.dataset_id in seen:
            return True
        seen.add(ds.dataset_id)
        if ds.cached:
            return False
        for dep in ds.deps:
            if isinstance(dep, ShuffleDependency):
                return False
            if not self._pool_pure_dataset(dep.parent, seen):
                return False
        return True

    def _maybe_pool_prefetch(self, stage: Stage, todo: Sequence[int],
                             metrics: JobMetrics) -> None:
        """Precompute a pure narrow stage's partitions on the process pool.

        Runs whenever a pool is attached (``backend == "pool"``) and the
        stage has no shuffle input, cached dataset or accumulator.
        Results are stashed for :meth:`_task_proc` to pop at its compute
        site, so the simulated schedule and accounting are unchanged.
        A prefetch that raises falls back to inline compute, so error
        surfacing stays identical to the in-process path; each fallback
        is counted in ``metrics.pool_prefetch_fallbacks`` and the
        ``engine.pool_prefetch_fallbacks`` registry counter, and by
        exception class in ``engine.pool_prefetch_fallbacks.<class>``.
        """
        ctx = stage.dataset.ctx
        if getattr(ctx, "backend", "inprocess") != "pool" \
                or getattr(ctx, "accumulators", []):
            return
        ds = stage.dataset
        missing = [s for s in todo
                   if (ds.dataset_id, s) not in self._prefetched]
        if not missing or not self._pool_pure_dataset(ds):
            return
        reg = obs_metrics.get_registry()
        try:
            parts = ctx.pooled_executor.compute_partitions(ds, missing)
        except Exception as exc:
            metrics.pool_prefetch_fallbacks += 1
            if reg is not None:
                reg.counter("engine.pool_prefetch_fallbacks").inc()
                reg.counter("engine.pool_prefetch_fallbacks."
                            + type(exc).__name__).inc()
            return
        for s, records in parts.items():
            self._prefetched[(ds.dataset_id, s)] = records
        metrics.pool_prefetched += len(parts)
        if reg is not None:
            reg.counter("engine.pool_prefetched").inc(len(parts))

    def _run_stage(self, stage: Stage, metrics: JobMetrics,
                   stage_by_shuffle: Dict[int, Stage],
                   per_partition, session: RetrySession,
                   splits: Optional[Sequence[int]] = None,
                   parent_span: Optional[int] = None):
        """Generator sub-process executing one stage (possibly partially)."""
        cfg = self.config
        pol = cfg.resilience
        hedge = pol.hedge if pol is not None else None
        if not stage.is_result:
            self._shuffle_nmaps[stage.shuffle_dep.shuffle_id] = stage.n_tasks
        todo = self._splits_to_run(stage, splits)
        results: Dict[int, Any] = {}
        if not todo:
            return results
        self._maybe_pool_prefetch(stage, todo, metrics)
        tr = obs_trace.get_tracer()
        stage_span = None
        if tr is not None:
            span_attrs: Dict[str, Any] = {
                "stage_id": stage.stage_id, "n_splits": len(todo),
                "is_result": stage.is_result,
                "recovery": splits is not None,
            }
            if stage.dataset.ctx.options.fusion:
                sizes = [len(g) for g in fusion_groups(stage.dataset)
                         if len(g) > 1]
                if sizes:
                    span_attrs["fused_segments"] = "|".join(map(str, sizes))
            stage_span = tr.begin("stage", self.sim.now,
                                  lane=("engine", "driver"), cat="stage",
                                  parent=parent_span, **span_attrs)
        pending: deque = deque(todo)
        wait_start: Dict[int, float] = {s: self.sim.now for s in todo}
        not_before: Dict[int, float] = {}   # policy backoff: earliest relaunch
        attempts: Dict[int, List[_Attempt]] = {s: [] for s in todo}
        done_splits: Set[int] = set()
        durations: List[float] = []
        inbox: Store = Store(self.sim)
        pending_get: Optional[Event] = None

        def completed() -> int:
            return len(done_splits)

        try:
            while completed() < len(todo):
                self._launch_ready(stage, pending, wait_start, attempts,
                                   metrics, inbox, per_partition, stage_span,
                                   not_before)
                if pending_get is None:
                    pending_get = inbox.get()
                # Arm the poll timer only when time passing (rather than a
                # task completing) can change what this loop should do:
                # speculation checks, hedging once a tail estimate exists,
                # or deferred tasks waiting out delay scheduling / backoff /
                # a node recovery.  Idle stages wait purely on the inbox,
                # which cuts simulated-event churn on large jobs.
                hedge_armed = (hedge is not None
                               and len(durations) >= hedge.min_samples)
                if cfg.speculation or pending or hedge_armed:
                    timer = self.sim.timeout(cfg.check_interval)
                    yield self.sim.any_of([pending_get, timer])
                else:
                    yield pending_get
                if not pending_get.triggered:
                    # periodic tick: maybe speculate / hedge stragglers
                    if cfg.speculation:
                        self._launch_backups(
                            SPECULATIVE, self._speculation_delay(
                                len(done_splits), durations, len(todo)),
                            None, stage, attempts, done_splits, metrics,
                            inbox, per_partition, stage_span)
                    if hedge_armed:
                        self._launch_backups(
                            HEDGED, hedge.delay(durations), hedge.max_hedges,
                            stage, attempts, done_splits, metrics, inbox,
                            per_partition, stage_span)
                    continue
                res: _TaskResult = pending_get.value
                pending_get = None
                self._release_slot(res.attempt)
                if res.split in done_splits:
                    # speculative loser: its attempt already reached its one
                    # terminal state in _task_proc; just note the race result
                    if tr is not None:
                        tr.instant("speculation_lost", self.sim.now,
                                   lane=("engine", res.node), cat="spec",
                                   split=res.split)
                    continue
                if res.ok:
                    done_splits.add(res.split)
                    durations.append(res.duration)
                    metrics.task_durations.append(res.duration)
                    results[res.split] = res.value
                    for acc, stash in res.acc_stashes:
                        acc._apply(stash)      # exactly once: winners only
                    if res.attempt.backup is not None:
                        self._count_backup(res.attempt.backup, metrics,
                                           won=True)
                    session.record_success(
                        f"s{stage.stage_id}t{res.split}", self.sim.now)
                    continue
                # failure handling
                metrics.n_failed_attempts += 1
                if isinstance(res.error, MissingShuffleError):
                    # several reduce tasks typically report the same loss at
                    # once; only re-run maps still absent from the registry
                    sid = res.error.shuffle_id
                    outputs = self._map_outputs.get(sid, {})
                    still_missing = [
                        m for m in res.error.missing
                        if m not in outputs
                        or not self.cluster.nodes[outputs[m].node].alive
                    ]
                    if still_missing:
                        parent = stage_by_shuffle[sid]
                        metrics.n_recovered_maps += len(still_missing)
                        if tr is not None:
                            tr.instant("lineage_recovery", self.sim.now,
                                       lane=("engine", "driver"), cat="recovery",
                                       shuffle_id=sid,
                                       n_maps=len(still_missing))
                        yield from self._run_stage(parent, metrics,
                                                   stage_by_shuffle, None,
                                                   session,
                                                   splits=still_missing,
                                                   parent_span=stage_span)
                    pending.append(res.split)
                    wait_start[res.split] = self.sim.now
                    continue
                # the retry session owns the attempt bound, the job-wide
                # budget, and the backoff schedule
                op = f"s{stage.stage_id}t{res.split}"
                try:
                    delay = session.record_failure(
                        op, str(res.error), self.sim.now)
                except RetryBudgetExhaustedError as exc:
                    raise TaskFailedError(
                        f"task {res.split} of stage {stage.stage_id} failed "
                        f"{session.attempts_for(op)} times: {res.error}\n"
                        + exc.describe(),
                        op=exc.op, job=exc.job, stage=stage.stage_id,
                        attempts=exc.attempts, budget=exc.budget)
                if delay > 0:
                    not_before[res.split] = self.sim.now + delay
                pending.append(res.split)
                wait_start[res.split] = self.sim.now
        finally:
            # Stale-get guard: a ``Store.get`` still outstanding when this
            # stage finishes — normally, or unwound by an exception while
            # waiting — must never swallow a late task result into a
            # completed stage loop (late results belong in ``inbox.items``
            # where they are harmless).  Withdraw it explicitly.
            if pending_get is not None and not pending_get.triggered:
                inbox.cancel_get(pending_get)
            elif pending_get is not None and \
                    isinstance(pending_get.value, _TaskResult):
                # collected but unwound before processing (recovery raised)
                self._release_slot(pending_get.value.attempt)
            # Slot-leak guard: the loop exits as soon as every split is
            # done, but speculative losers (and, after an exception, any
            # in-flight attempt) may still hold core slots.  Results already
            # delivered release here; attempts still running are orphaned —
            # alive=False stops their output, and _task_proc gives the slot
            # back itself when the simulated work finishes.
            for leftover in inbox.items:
                if isinstance(leftover, _TaskResult):
                    self._release_slot(leftover.attempt)
            inbox.items.clear()
            for atts in attempts.values():
                for a in atts:
                    if a.alive:
                        a.alive = False
                        self._end_span(a.span, outcome="orphaned")
            self._end_span(stage_span, n_done=len(done_splits))
        return results

    # -------------------------------------------------------- scheduling

    def _locality_nodes(self, stage: Stage, split: int) -> List[str]:
        return [n for n in stage.dataset.preferred_locations(split)
                if n in self.cluster.nodes]

    def _pick_node(self, stage: Stage, split: int,
                   waited: float) -> Tuple[Optional[str], str]:
        """Choose a node honoring delay scheduling; returns (node, level)."""
        prefs = self._locality_nodes(stage, split)
        free_live = [n for n, k in self._free_slots.items()
                     if k > 0 and self.cluster.nodes[n].alive]
        if not free_live:
            return None, "none"
        # spread load: prefer the node with the most free slots (ties by name)
        free_live.sort(key=lambda n: (-self._free_slots[n], n))
        if prefs:
            local = [n for n in prefs if n in free_live]
            if local:
                return local[0], "node"
            wait = self.config.locality_wait
            if waited < wait:
                return None, "waiting"
            pref_racks = {self.cluster.rack_of(n) for n in prefs
                          if n in self.cluster.nodes}
            rack_local = [n for n in free_live
                          if self.cluster.rack_of(n) in pref_racks]
            if rack_local:
                return rack_local[0], "rack"
            if waited < 2 * wait:
                return None, "waiting"
            return free_live[0], "any"
        return free_live[0], "any"

    def _launch_ready(self, stage: Stage, pending: deque, wait_start,
                      attempts, metrics: JobMetrics, inbox: Store,
                      per_partition, stage_span: Optional[int] = None,
                      not_before: Optional[Dict[int, float]] = None) -> None:
        deferred: List[int] = []
        while pending:
            split = pending.popleft()
            if not_before is not None and \
                    not_before.get(split, 0.0) > self.sim.now:
                deferred.append(split)   # still backing off under policy
                continue
            waited = self.sim.now - wait_start[split]
            node_name, level = self._pick_node(stage, split, waited)
            if node_name is None:
                deferred.append(split)
                if level == "none":
                    break   # no free slot anywhere: stop scanning
                continue
            if self._locality_nodes(stage, split):
                if level == "node":
                    metrics.locality_node += 1
                elif level == "rack":
                    metrics.locality_rack += 1
                else:
                    metrics.locality_any += 1
            self._launch(stage, split, node_name, attempts, metrics, inbox,
                         per_partition, stage_span=stage_span)
        pending.extend(deferred)

    def _launch(self, stage: Stage, split: int, node_name: str, attempts,
                metrics: JobMetrics, inbox: Store, per_partition,
                stage_span: Optional[int] = None,
                backup: Optional[_Backup] = None) -> None:
        self._free_slots[node_name] -= 1
        attempt = _Attempt(split, node_name, self.sim.now, backup)
        attempt._inbox = inbox
        attempts.setdefault(split, []).append(attempt)
        self._running_by_node.setdefault(node_name, {})[attempt] = None
        metrics.n_tasks += 1
        tr = obs_trace.get_tracer()
        if tr is not None:
            attempt.span = tr.begin(
                "task", self.sim.now, lane=("engine", node_name), cat="task",
                parent=stage_span, stage_id=stage.stage_id, split=split,
                speculative=backup is SPECULATIVE)
        self.sim.process(
            self._task_proc(stage, split, attempt, metrics, inbox,
                            per_partition),
            name=f"task:s{stage.stage_id}p{split}")

    def _backup_node(self, attempt: _Attempt) -> Optional[str]:
        """The node for a duplicate of ``attempt``: the live node, other
        than its own, with the most free slots (ties by name)."""
        candidates = [n for n, k in self._free_slots.items()
                      if k > 0 and n != attempt.node
                      and self.cluster.nodes[n].alive]
        return min(candidates, key=lambda n: (-self._free_slots[n], n),
                   default=None)

    def _speculation_delay(self, n_done: int, durations: List[float],
                           n_total: int) -> Optional[float]:
        """How long a straggler runs before speculation backs it up, or
        None while too few splits have finished to judge."""
        if n_done < SPECULATION_MIN_FRAC * n_total or not durations:
            return None
        med = sorted(durations)[len(durations) // 2]
        return max(SPECULATION_MULTIPLIER * med,
                   2 * self.config.check_interval)

    def _launch_backups(self, kind: _Backup, delay: Optional[float],
                        cap: Optional[int], stage: Stage, attempts,
                        done_splits, metrics: JobMetrics, inbox: Store,
                        per_partition, stage_span: Optional[int]) -> None:
        """Back up, on :meth:`_backup_node`, every unfinished split whose
        one live attempt has run ``delay`` or longer and has fewer than
        ``cap`` backups of ``kind``.  Speculation and hedging differ only
        in ``kind``, ``delay`` and ``cap``; losers are discarded by the
        duplicate-result path, so a backup never changes the answer."""
        if delay is None:
            return
        for split, atts in attempts.items():
            live = [a for a in atts if a.alive]
            # none live: it will be relaunched; two live: backed up already
            if split in done_splits or len(live) != 1 \
                    or self.sim.now - live[0].started < delay \
                    or (cap is not None
                        and sum(a.backup is kind for a in atts) >= cap):
                continue
            node = self._backup_node(live[0])
            if node is None:
                continue
            self._count_backup(kind, metrics, won=False)
            tr = obs_trace.get_tracer()
            if tr is not None and kind.registry is not None:
                tr.instant(f"{kind.registry}.launch", self.sim.now,
                           lane=("engine", node), cat="resilience",
                           stage_id=stage.stage_id, split=split, delay=delay)
            self._launch(stage, split, node, attempts, metrics, inbox,
                         per_partition, stage_span=stage_span, backup=kind)

    @staticmethod
    def _count_backup(kind: _Backup, metrics: JobMetrics, won: bool) -> None:
        name = kind.wins if won else kind.launches
        if name is not None:
            setattr(metrics, name, getattr(metrics, name) + 1)
        reg = obs_metrics.get_registry()
        if reg is not None and kind.registry is not None:
            reg.counter(f"{kind.registry}.{'wins' if won else 'launched'}"
                        ).inc()

    def _release_slot(self, attempt: _Attempt) -> None:
        # Idempotent: an attempt's result can surface more than once (a
        # finished-but-unconsumed attempt gets a second node_lost result
        # when its node dies), and a slot must be given back exactly once.
        if attempt.released:
            return
        attempt.released = True
        self._running_by_node.get(attempt.node, {}).pop(attempt, None)
        if self.cluster.nodes[attempt.node].alive:
            self._free_slots[attempt.node] += 1

    # ------------------------------------------------------------ the task

    def _task_proc(self, stage: Stage, split: int, attempt: _Attempt,
                   metrics: JobMetrics, inbox: Store, per_partition):
        sim = self.sim
        node = self.cluster.nodes[attempt.node]
        t0 = sim.now
        yield sim.timeout(self.cost.task_overhead)
        if self.fault_hook is not None and \
                self.fault_hook(stage, split, attempt.node):
            if attempt.alive:
                attempt.alive = False
                self._end_span(attempt.span, outcome="chaos_crash")
                yield inbox.put(_TaskResult(split, attempt.node, False,
                                            "chaos_task_crash", None,
                                            sim.now - t0, attempt))
            else:
                self._release_slot(attempt)   # orphaned: nobody else will
            return
        # ship any broadcast blocks this node does not hold yet (once per
        # node, torrent-style from a peer that already has the block)
        for bc in getattr(stage.dataset.ctx, "broadcasts", []):
            holders = self._bc_on_node.setdefault(bc.bc_id, set())
            if attempt.node in holders:
                continue
            # sorted: set order of node-name strings depends on the hash
            # seed, and the chosen peer must not vary across processes
            holders_alive = sorted(h for h in holders
                                   if self.cluster.nodes[h].alive)
            # mark BEFORE yielding: concurrent tasks on this node must not
            # each ship their own copy (the whole point of broadcasting)
            holders.add(attempt.node)
            if holders_alive:
                yield self.cluster.transfer(holders_alive[0], attempt.node,
                                            bc.size_bytes)
                metrics.broadcast_bytes += bc.size_bytes
            # else: first node is driver-local, no intra-cluster traffic
        runtime = _SimRuntime(self, attempt.node)
        accs = getattr(stage.dataset.ctx, "accumulators", [])
        for a in accs:
            a._begin_task()
        try:
            prefetched = self._prefetched.pop(
                (stage.dataset.dataset_id, split), None)
            if stage.is_result:
                records = prefetched if prefetched is not None \
                    else list(stage.dataset.iterate(split, runtime))
                records_in = len(records)
            else:
                # the map task runs here, at the compute site: with a
                # combine sink the pre-combine records never materialize
                out = run_map_task(stage.shuffle_dep, split, runtime,
                                   self.cost, prefetched)
                records_in = out.records_in
                if out.fallback is not None:
                    fb = metrics.combine_sink_fallbacks
                    fb[out.fallback] = fb.get(out.fallback, 0) + 1
            error = None
        except MissingShuffleError as exc:
            error = exc
        finally:
            acc_stashes = [(a, a._end_task()) for a in accs]
        if error is not None:
            if attempt.alive:
                attempt.alive = False
                self._end_span(attempt.span, outcome="missing_shuffle")
                yield inbox.put(_TaskResult(split, attempt.node, False,
                                            error, None, sim.now - t0,
                                            attempt))
            else:
                self._release_slot(attempt)
            return
        # charge input movement: shuffle fetches + cache fetches + any
        # non-local source partition reads
        fetch_evs = []
        for src, nbytes in runtime.fetches:
            if src != attempt.node and nbytes > 0:
                fetch_evs.append(self.cluster.transfer(src, attempt.node,
                                                       nbytes))
                metrics.shuffle_bytes += nbytes
        src_bytes, src_holder = self._source_fetch(stage.dataset, split,
                                                   attempt.node)
        if src_bytes > 0 and src_holder is not None:
            fetch_evs.append(self.cluster.transfer(src_holder, attempt.node,
                                                   src_bytes))
            metrics.input_fetch_bytes += src_bytes
        if fetch_evs:
            yield sim.all_of(fetch_evs)
        # memory pressure: shuffle input beyond the executor's memory
        # spills — an external-sort pass (write + read back the excess)
        input_bytes = sum(b for _s, b in runtime.fetches) + src_bytes
        overflow = input_bytes - self.config.executor_memory
        if overflow > 0:
            metrics.spill_bytes += overflow
            yield node.disk_write(overflow)
            yield node.disk_read(overflow)
        # charge compute
        n_source = source_record_count(stage.dataset, split)
        depth = narrow_op_depth(stage.dataset)
        work = self.cost.compute_work(
            records_in + runtime.records_in + n_source, max(depth, 1))
        yield node.compute(work)
        # produce output
        if stage.is_result:
            value: Any = per_partition(records) if per_partition else records
        else:
            # sized after compute: the first map task to get here fixes
            # the shuffle's per-record size, and with it every shuffle_MB
            sid = stage.shuffle_dep.shuffle_id
            total = sum(out.size(sid, self._size_est))
            reg = obs_metrics.get_registry()
            if reg is not None:
                reg.counter("engine.shuffle_write_bytes").inc(total)
            if total > 0:
                yield node.disk_write(total)
            if attempt.alive:
                # sealed buckets are verified at reduce fetch; a corrupt
                # one drops the map output and rides lineage recovery
                buckets, seals = seal_buckets(
                    out.buckets, stage.dataset.ctx.options.checksums)
                self._register_map_output(sid, split, _MapOutput(
                    attempt.node, buckets, out.bucket_bytes, seals))
            value = None
        if attempt.alive:
            attempt.alive = False
            self._end_span(attempt.span, outcome="ok")
            yield inbox.put(_TaskResult(split, attempt.node, True, None,
                                        value, sim.now - t0, attempt,
                                        acc_stashes=acc_stashes))
        else:
            self._release_slot(attempt)

    def _source_fetch(self, ds: Dataset, split: int,
                      node: str) -> Tuple[float, Optional[str]]:
        """Bytes (and holder) to fetch when source data is not node-local."""
        prefs = ds.preferred_locations(split)
        prefs = [p for p in prefs if p in self.cluster.nodes
                 and self.cluster.nodes[p].alive]
        if not prefs or node in prefs:
            return 0.0, None
        n_records = source_record_count(ds, split)
        if n_records == 0:
            return 0.0, None
        # estimate from record count with the model's per-record floor;
        # real sizes are unknown without materializing the source here.
        nbytes = n_records * self.cost.min_record_bytes
        rack = self.cluster.rack_of(node)
        same_rack = [p for p in prefs if self.cluster.rack_of(p) == rack]
        return nbytes, (same_rack[0] if same_rack else prefs[0])

    # ----------------------------------------------------------- integrity

    def _register_map_output(self, sid: int, split: int,
                             mo: _MapOutput) -> None:
        """Register a map output, auditing any overwritten predecessor.

        A re-registration (speculation, lineage re-run) replaces the old
        output wholesale; if the old copy carried unread corruption it is
        discarded here, which is the only way the oracle's accounting
        identity stays exact across recoveries.
        """
        outputs = self._map_outputs.setdefault(sid, {})
        old = outputs.get(split)
        if old is not None:
            self._audit_discard(old)
        outputs[split] = mo

    def _record_integrity_detection(self, sid: int, m: int, r: int) -> None:
        """Count one detected-corrupt bucket (instance + registry + trace)."""
        self.integrity_detected += 1
        reg = obs_metrics.get_registry()
        if reg is not None:
            reg.counter("integrity.detected").inc()
        tr = obs_trace.get_tracer()
        if tr is not None:
            tr.instant("integrity_detected", self.sim.now,
                       lane=("engine", "driver"), cat="integrity",
                       args={"layer": "shuffle.mem", "shuffle_id": sid,
                             "map": m, "reduce": r})

    def _audit_discard(self, mo: _MapOutput,
                       skip: Optional[int] = None) -> None:
        """Count corrupt buckets of a map output leaving the registry unread.

        ``skip`` excludes the bucket that was just *detected* (already
        counted) when the detection path drops the whole output.
        """
        n = sum(r != skip for r in mo.rotten())
        if n:
            self.integrity_latent_discarded += n
            reg = obs_metrics.get_registry()
            if reg is not None:
                reg.counter("integrity.latent_discarded").inc(n)

    # ------------------------------------------------------------ failures

    def _on_node_event(self, node: Node, kind: str) -> None:
        tr = obs_trace.get_tracer()
        if tr is not None:
            tr.instant(f"node_{kind}", self.sim.now,
                       lane=("engine", node.name), cat="cluster")
        if kind == "recover":
            self._free_slots[node.name] = node.spec.cores
            return
        # node lost: fail running attempts, drop its map outputs & cache
        self._free_slots[node.name] = 0
        for attempt in list(self._running_by_node.get(node.name, ())):
            self._running_by_node[node.name].pop(attempt, None)
            # the slot died with the node — the recover event resets the
            # node's count wholesale, so a later _release_slot for this
            # attempt must not add a slot on top of it
            attempt.released = True
            if not attempt.alive:
                # already reached its terminal state; its result sits in the
                # stage inbox and must not be shadowed by a second one
                continue
            attempt.alive = False
            self._end_span(attempt.span, outcome="node_lost")
            # notify the owning stage loop through a synthetic failure; the
            # stage's inbox reference lives in the task process, so instead
            # we re-enqueue via a watchdog process that the stage polls.
            self._fail_async(attempt)
        for sid, outputs in self._map_outputs.items():
            dead = [m for m, mo in outputs.items() if mo.node == node.name]
            for m in dead:
                self._audit_discard(outputs[m])
                del outputs[m]
        for key in [k for k, e in self._cache.items() if e.node == node.name]:
            del self._cache[key]

    def _fail_async(self, attempt: _Attempt) -> None:
        """Deliver a node-lost failure for an attempt to its stage inbox."""
        inbox = getattr(attempt, "_inbox", None)
        if inbox is None:
            return

        def _notify(sim: Simulator):
            yield sim.timeout(0.0)
            yield inbox.put(_TaskResult(attempt.split, attempt.node, False,
                                        "node_lost", None, 0.0, attempt))
        self.sim.process(_notify(self.sim), name="task-fail-notify")
