"""Warm multi-process execution backend: the GIL-breaking worker pool.

Every prior optimization layer (vectorized shuffle, fused narrow chains,
columnar SQL) executes inside one Python process, so end-to-end
wall-clock is capped by the GIL.  This module adds the missing axis: a
:class:`ProcessPoolBackend` of **warm, long-lived worker subprocesses**
and a :class:`PooledExecutor` that mirrors the in-process
:class:`~repro.dataflow.local.LocalExecutor` action-for-action while
fanning partition work out across cores.

Design:

* **Warm workers.**  Workers are spawned once (per backend) and *primed*
  per job: they receive the serialized plan graph (source partitions
  stripped — data rides with each task, and the context's
  :class:`~repro.dataflow.context.ExecOptions` ride on its stub), the
  cost model, the accumulator set, and the step shapes of the job's
  fused chains so every worker compiles its segment cache before the
  first task arrives.  Priming is keyed on (context, plan root,
  options, ...) and skipped when nothing changed,
  so repeated actions on a warm pool pay zero setup.
* **Closure shipping.**  Plans are lambdas all the way down; the
  :mod:`~repro.dataflow.closure` pickler ships them by value (stdlib
  pickle protocol 5 with out-of-band buffers, so numpy column batches
  travel as raw frames).  Unserializable operators surface as
  :class:`~repro.common.errors.UnpicklableTaskError` naming the plan
  node, via :func:`audit_plan`, not as a deep worker traceback.
* **Shuffle by file.**  Map tasks run :func:`~repro.dataflow.shuffleio.
  run_map_task` (the local executor's map task, compiled combine sink
  included) in the worker, write the buckets to a per-(shuffle, map)
  scratch file, and stream back only a *reference* (path + per-bucket
  offsets) plus the task's :class:`~repro.dataflow.shuffleio.
  MapTaskOutput` without its buckets.  The driver sizes those records
  in map-split order, as the local executor does, so the pool's
  :class:`~repro.dataflow.local.ShuffleMetrics` equal the local ones.
  Reduce tasks on any worker seek straight to their bucket, reading map
  outputs in map-split order — byte-identical record order to the
  in-process path.
* **Failure semantics.**  A worker death is detected on its pipe, the
  worker is respawned and re-primed, and the lost tasks are retried —
  each retry recorded in a ``repro.resilience``
  :class:`~repro.resilience.policy.RetrySession` (the attempt ledger
  tests and operators read); budget exhaustion raises
  :class:`~repro.common.errors.TaskFailedError`.  Completed map output
  files survive their writer's death.  Task payloads and results use
  strict one-in-flight request/response per worker, so a driver send and
  a worker send can never deadlock against each other on a full pipe.
* **Exactly-once accumulators.**  Workers stash accumulator updates per
  task and ship the stash back with the result; the driver applies
  stashes of *successful* tasks in split order — identical sequencing to
  the local executor, and lost attempts never double-count.

The backend is A/B-toggleable per context (``ctx.backend = "pool"``,
env ``REPRO_BACKEND``) and byte-identical to in-process execution on
every workload the randomized equivalence harnesses cover.
"""

from __future__ import annotations

import multiprocessing
import os
import shutil
import tempfile
import time
import traceback
import weakref
from collections import deque
from multiprocessing import connection as mpconn
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from ..common.errors import (
    ChecksumError,
    DataflowError,
    RetryBudgetExhaustedError,
    TaskFailedError,
    UnpicklableTaskError,
    WorkerTaskError,
)
from ..obs.metrics import get_registry
from ..resilience.policy import RetryPolicy
from . import closure, fusion, shuffleio
from .context import ExecOptions
from .costmodel import SizeEstimator
from .local import ExecutorBase, ShuffleMetrics
from .plan import (
    Dataset,
    MappedDataset,
    ShuffleDependency,
    SourceDataset,
    TaskRuntime,
)

__all__ = ["ProcessPoolBackend", "PooledExecutor", "audit_plan",
           "default_start_method"]


def default_start_method() -> str:
    """``fork`` where available (warm + cheap), else ``spawn``."""
    override = os.environ.get("REPRO_POOL_START_METHOD")
    if override:
        return override
    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else "spawn"


# -- plan-graph helpers -------------------------------------------------------


def _walk_datasets(root: Dataset) -> List[Dataset]:
    """Every dataset reachable from ``root`` through its dependencies."""
    out: List[Dataset] = []
    seen: set = set()
    stack = [root]
    while stack:
        ds = stack.pop()
        if ds.dataset_id in seen:
            continue
        seen.add(ds.dataset_id)
        out.append(ds)
        for dep in ds.deps:
            stack.append(dep.parent)
    return out


def _plan_segment_shapes(datasets: Sequence[Dataset]) -> List[Tuple[str, ...]]:
    """Fused-segment step shapes the plan will compile (for priming):
    every mapped dataset's chain, plus the combine-sink shapes of the
    map tasks that :func:`shuffleio.run_map_task` folds."""
    shapes: set = set()
    for ds in datasets:
        if isinstance(ds, MappedDataset):
            kinds = [d._fused_step()[0] for d in ds._fused_chain()]
            shapes.update(fusion.segment_shapes(kinds))
        for dep in ds.deps:
            if isinstance(dep, ShuffleDependency) and dep.map_side_combine \
                    and shuffleio._sink_fallback(dep.parent, False) is None:
                kinds = [d._fused_step()[0]
                         for d in dep.parent._fused_chain()]
                shapes.update(fusion.segment_shapes(kinds, sink=True))
    return sorted(shapes)


def _gather_source_payloads(ds: Dataset, split: int,
                            out: Dict[Tuple[int, int], List]) -> None:
    """Source partitions feeding ``(ds, split)`` through narrow lineage."""
    if isinstance(ds, SourceDataset):
        out[(ds.dataset_id, split)] = ds._partitions[split]
        return
    for parent, psplit in ds.parent_splits(split):
        _gather_source_payloads(parent, psplit, out)


def audit_plan(root: Dataset) -> None:
    """Round-trip every closure the plan carries through the pickler.

    Raises :class:`UnpicklableTaskError` naming the offending dataset
    and operator (``fn`` / ``elem_fn`` / aggregator fold / partitioner /
    source partition data) instead of a deep pool traceback.
    """
    for ds in _walk_datasets(root):
        label = f"{type(ds).__name__}#{ds.dataset_id}"
        for attr in ("fn", "elem_fn"):
            fnv = getattr(ds, attr, None)
            if fnv is not None:
                closure.check_picklable(fnv, dataset=label, operator=attr)
        if isinstance(ds, SourceDataset):
            closure.check_picklable(ds._partitions, dataset=label,
                                    operator="source partitions")
        if ds.partitioner is not None:
            closure.check_picklable(ds.partitioner, dataset=label,
                                    operator="partitioner")
        for dep in ds.deps:
            if not isinstance(dep, ShuffleDependency):
                continue
            closure.check_picklable(dep.partitioner, dataset=label,
                                    operator="shuffle partitioner")
            agg = dep.aggregator
            if agg is not None:
                for op in ("create", "merge_value", "merge_combiners"):
                    closure.check_picklable(
                        getattr(agg, op), dataset=label,
                        operator=f"aggregator.{op}")


# -- worker-side plan stubs ---------------------------------------------------


class _WorkerContext:
    """Driver-context stand-in inside pool workers.

    Carries exactly the attributes plan ``compute`` paths consult — the
    execution options and the child counts that drive fusion barriers; the
    executors' bookkeeping lists stay empty (workers never run actions).
    """

    def __init__(self, default_parallelism: int, options: ExecOptions,
                 child_counts: Dict[int, int], token: int) -> None:
        self.default_parallelism = default_parallelism
        self.options = options
        self._child_counts = child_counts
        self.ctx_token = token
        self.broadcasts: List = []
        self.accumulators: List = []


class _RemotePartitions:
    """Source-partition stand-in: the records arrive with each task."""

    def __init__(self, dataset_id: int) -> None:
        self.dataset_id = dataset_id
        self._store: Optional[Dict[Tuple[int, int], List]] = None

    def __getitem__(self, split: int) -> List:
        store = self._store
        if store is not None:
            hit = store.get((self.dataset_id, split))
            if hit is not None:
                return hit
        raise DataflowError(
            f"source payload for dataset {self.dataset_id} split {split} "
            f"was not shipped to this pool worker")


def _rebuild_dataset(cls, state):
    obj = cls.__new__(cls)
    obj.__dict__.update(state)
    return obj


def _rebuild_worker_ctx(default_parallelism, options, child_counts, token):
    return _WorkerContext(default_parallelism, options, child_counts, token)


def _plan_overrides() -> Dict[type, Any]:
    """Pickle hooks stripping driver-only plan state for workers."""
    from .context import DataflowContext

    def strip_source(ds: SourceDataset):
        state = dict(ds.__dict__)
        state["_partitions"] = _RemotePartitions(ds.dataset_id)
        return (_rebuild_dataset, (type(ds), state))

    def stub_ctx(ctx):
        return (_rebuild_worker_ctx,
                (ctx.default_parallelism, ctx.options,
                 dict(ctx._child_counts), ctx.ctx_token))

    return {SourceDataset: strip_source, DataflowContext: stub_ctx}


# -- the worker process -------------------------------------------------------


class _WorkerRuntime(TaskRuntime):
    def __init__(self, state: "_WorkerState") -> None:
        self._state = state

    def fetch_shuffle(self, shuffle_id: int, reduce_id: int) -> List:
        refs = self._state.shuffle_refs.get(shuffle_id)
        if refs is None:
            raise DataflowError(
                f"shuffle {shuffle_id} is not registered in this pool worker")
        out: List = []
        # map-split order, matching LocalExecutor's bucket concatenation
        for path, offsets in refs:
            out.extend(shuffleio.read_bucket_file(path, offsets, reduce_id))
        return out

    def cache_get(self, dataset: Dataset, split: int) -> Optional[List]:
        return self._state.cache.get((dataset.dataset_id, split))

    def cache_put(self, dataset: Dataset, split: int, records: List) -> None:
        self._state.cache[(dataset.dataset_id, split)] = records


class _WorkerState:
    def __init__(self) -> None:
        self.ctx_token: Optional[int] = None
        self.datasets: Dict[int, Dataset] = {}
        self.shuffle_deps: Dict[int, ShuffleDependency] = {}
        self.accumulators: List = []
        self.shuffle_refs: Dict[int, List] = {}
        self.cache: Dict[Tuple[int, int], List] = {}
        self.payloads: Dict[Tuple[int, int], List] = {}
        self.cost = None
        self.prime_error: Optional[str] = None
        self.runtime = _WorkerRuntime(self)


def _do_prime(state: _WorkerState, blob: bytes, bufs: List[bytes]) -> None:
    payload = closure.loads(blob, bufs)
    token = payload["ctx_token"]
    if token != state.ctx_token:
        # a different driver context: its dataset/shuffle ids are a
        # separate namespace, so drop everything the old one left behind
        state.ctx_token = token
        state.datasets.clear()
        state.shuffle_deps.clear()
        state.cache.clear()
        state.shuffle_refs.clear()
    fusion.prime_segments(payload["shapes"])
    state.cost = payload["cost_model"]
    state.accumulators = payload["accumulators"]
    state.shuffle_refs.update(payload["shuffle_refs"])
    stack = [payload["root"]]
    seen: set = set()
    while stack:
        ds = stack.pop()
        if ds.dataset_id in seen:
            continue
        seen.add(ds.dataset_id)
        state.datasets[ds.dataset_id] = ds
        parts = getattr(ds, "_partitions", None)
        if isinstance(parts, _RemotePartitions):
            parts._store = state.payloads
        for dep in ds.deps:
            if isinstance(dep, ShuffleDependency):
                state.shuffle_deps[dep.shuffle_id] = dep
            stack.append(dep.parent)


def _run_task(state: _WorkerState, out_path: Optional[str], blob: bytes,
              bufs: List[bytes]) -> Tuple[bytes, List[bytes]]:
    if state.prime_error is not None:
        raise DataflowError(f"pool worker prime failed: {state.prime_error}")
    spec = closure.loads(blob, bufs)
    for key, records in spec["payloads"].items():
        state.payloads[key] = records
    accs = state.accumulators
    for a in accs:
        a._begin_task()
    t0 = time.perf_counter()
    try:
        if spec["kind"] == "narrow":
            ds = state.datasets[spec["id"]]
            records = list(ds.iterate(spec["split"], state.runtime))
            result: Dict[str, Any] = {"records": records}
        else:  # "map": compute the parent split and write its buckets
            dep = state.shuffle_deps[spec["id"]]
            out = shuffleio.run_map_task(dep, spec["split"], state.runtime,
                                         state.cost)
            offsets = shuffleio.write_bucket_file(
                out_path, out.buckets, dep.parent.ctx.options.checksums)
            out.buckets = None   # the records travel by file
            result = {"path": out_path, "offsets": offsets, "map": out}
    finally:
        stashes = [a._end_task() for a in accs]
        for key in spec["payloads"]:
            state.payloads.pop(key, None)
    result["stashes"] = stashes
    result["busy"] = time.perf_counter() - t0
    return closure.dumps(result)


def _worker_main(conn) -> None:
    """The pool worker loop: prime / task / shuffle-registration messages."""
    # compiled segments are per-process state: never trust anything
    # inherited across fork(), rebuild from the primed shapes instead
    fusion.reset_segment_cache()
    state = _WorkerState()
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError, KeyboardInterrupt):
            break
        kind = msg[0]
        if kind == "stop":
            break
        tid: Optional[int] = None
        try:
            if kind == "prime":
                state.prime_error = None
                try:
                    _do_prime(state, msg[2], msg[3])
                except BaseException as exc:  # surfaced by the next task
                    state.prime_error = f"{type(exc).__name__}: {exc}"
                continue
            if kind == "shuffle":
                state.shuffle_refs[msg[1]] = msg[2]
                continue
            if kind == "uncache":
                ds_id = msg[1]
                state.cache = {k: v for k, v in state.cache.items()
                               if k[0] != ds_id}
                continue
            if kind == "clear":
                state.cache.clear()
                state.shuffle_refs.clear()
                continue
            if kind == "task":
                tid, out_path = msg[1], msg[2]
                blob, bufs = _run_task(state, out_path, msg[3], msg[4])
                conn.send(("ok", tid, blob, bufs))
        except BaseException as exc:
            try:
                eblob, ebufs = closure.dumps(exc)
            except Exception:
                eblob, ebufs = None, []
            try:
                conn.send(("err", tid, type(exc).__name__,
                           traceback.format_exc(), eblob, ebufs))
            except Exception:
                break
    try:
        conn.close()
    except Exception:
        pass


# -- the driver-side backend --------------------------------------------------


class _TaskSpec:
    """One unit of pool work: a narrow compute or a shuffle map write."""

    __slots__ = ("kind", "target_id", "split", "payloads", "op", "map_out",
                 "_blob")

    def __init__(self, kind: str, target_id: int, split: int,
                 payloads: Dict[Tuple[int, int], List], op: str,
                 map_out: Optional[Tuple[int, int]] = None) -> None:
        self.kind = kind
        self.target_id = target_id
        self.split = split
        self.payloads = payloads
        self.op = op
        self.map_out = map_out   # (shuffle_id, split) for map tasks
        self._blob: Optional[Tuple[bytes, List[bytes]]] = None

    def payload(self) -> Tuple[bytes, List[bytes]]:
        if self._blob is None:   # built once; retries reuse the bytes
            self._blob = closure.dumps(
                {"kind": self.kind, "id": self.target_id,
                 "split": self.split, "payloads": self.payloads})
        return self._blob


class _Worker:
    __slots__ = ("proc", "conn", "index")

    def __init__(self, proc, conn, index: int) -> None:
        self.proc = proc
        self.conn = conn
        self.index = index


def _release_resources(res: Dict[str, Any]) -> None:
    """Stop workers and remove scratch files (finalizer-safe)."""
    for w in res["workers"]:
        if w is None:
            continue
        try:
            w.conn.send(("stop",))
        except Exception:
            pass
        try:
            w.conn.close()
        except Exception:
            pass
        try:
            w.proc.join(timeout=1.0)
            if w.proc.is_alive():
                w.proc.terminate()
                w.proc.join(timeout=1.0)
        except Exception:
            pass
    res["workers"].clear()
    tmp = res.get("tmp")
    if tmp:
        shutil.rmtree(tmp, ignore_errors=True)
    res["tmp"] = None


class ProcessPoolBackend:
    """A pool of warm worker subprocesses executing plan tasks.

    One backend serves one driver context at a time (priming resets
    worker state when the context changes), but survives across contexts
    — benchmarks reuse a warm pool via ``ctx.attach_pool``.  Worker
    count defaults to ``REPRO_POOL_WORKERS`` or the CPU count; start
    method defaults to fork where the platform has it
    (``REPRO_POOL_START_METHOD`` overrides).
    """

    def __init__(self, n_workers: Optional[int] = None,
                 start_method: Optional[str] = None,
                 retry_policy: Optional[RetryPolicy] = None) -> None:
        if n_workers is None:
            env = os.environ.get("REPRO_POOL_WORKERS")
            n_workers = int(env) if env else (os.cpu_count() or 1)
        self.n_workers = max(1, int(n_workers))
        self.start_method = start_method or default_start_method()
        self.retry_policy = retry_policy or RetryPolicy(max_attempts=3)
        self._mp = multiprocessing.get_context(self.start_method)
        self._res: Dict[str, Any] = {"workers": [], "tmp": None}
        self._workers: List[Optional[_Worker]] = self._res["workers"]
        self._epoch = 0
        self._prime_key: Optional[tuple] = None
        self._prime_msg: Optional[tuple] = None
        self._post_prime_msgs: List[tuple] = []
        self._next_tid = 0
        self._next_file = 0
        self._closed = False
        self.worker_deaths = 0
        self.busy_seconds = 0.0
        self._finalizer = weakref.finalize(self, _release_resources,
                                           self._res)

    # -- lifecycle -------------------------------------------------------

    @property
    def tmp_dir(self) -> str:
        if self._res["tmp"] is None:
            self._res["tmp"] = tempfile.mkdtemp(prefix="repro-pool-")
        return self._res["tmp"]

    def ensure_started(self) -> None:
        if self._closed:
            raise DataflowError("process-pool backend is closed")
        for i in range(self.n_workers):
            if i >= len(self._workers) or self._workers[i] is None:
                self._spawn_worker(i)

    @property
    def workers_alive(self) -> int:
        return sum(1 for w in self._workers
                   if w is not None and w.proc.is_alive())

    def shutdown(self) -> None:
        """Stop every worker and delete the scratch directory."""
        self._closed = True
        self._finalizer()

    def _spawn_worker(self, index: int) -> _Worker:
        parent, child = self._mp.Pipe()
        proc = self._mp.Process(target=_worker_main, args=(child,),
                                name=f"repro-pool-{index}", daemon=True)
        proc.start()
        child.close()
        w = _Worker(proc, parent, index)
        if index < len(self._workers):
            self._workers[index] = w
        else:
            self._workers.append(w)
        reg = get_registry()
        if reg is not None:
            reg.counter("pool.workers_spawned").inc()
            reg.gauge("pool.workers").set(self.workers_alive)
        if self._prime_msg is not None:
            self._send(w, self._prime_msg)
            for msg in self._post_prime_msgs:
                self._send(w, msg)
        return w

    # -- messaging -------------------------------------------------------

    def _send(self, w: _Worker, msg: tuple) -> bool:
        try:
            w.conn.send(msg)
        except (OSError, ValueError, BrokenPipeError):
            return False
        reg = get_registry()
        if reg is not None and msg[0] in ("task", "prime"):
            nbytes = sum(len(p) for p in msg if isinstance(p, bytes))
            nbytes += sum(len(b) for p in msg if isinstance(p, list)
                          for b in p if isinstance(b, bytes))
            reg.counter("pool.bytes_sent").inc(nbytes)
        return True

    def _drain_stale(self, w: _Worker) -> None:
        try:
            while w.conn.poll(0):
                w.conn.recv()
        except (EOFError, OSError):
            pass    # discovered dead at the next dispatch

    def _broadcast(self, msg: tuple) -> None:
        for w in self._workers:
            if w is not None:
                self._drain_stale(w)
                self._send(w, msg)

    # -- priming ---------------------------------------------------------

    def prime(self, ctx, root: Dataset, accumulators: Sequence,
              shuffle_refs: Dict[int, List]) -> None:
        """Ship the plan graph + options to every worker (idempotent)."""
        datasets = _walk_datasets(root)
        key = (ctx.ctx_token, root.dataset_id, ctx._next_id, ctx.options,
               tuple(sorted(d.dataset_id for d in datasets if d.cached)),
               len(accumulators))
        if key == self._prime_key:
            self.ensure_started()
            return
        payload = {
            "ctx_token": ctx.ctx_token,
            "root": root,
            "accumulators": list(accumulators),
            "shapes": (_plan_segment_shapes(datasets)
                       if ctx.options.fusion else []),
            "cost_model": ctx.cost_model,
            "shuffle_refs": dict(shuffle_refs),
        }
        try:
            blob, bufs = closure.dumps(payload, overrides=_plan_overrides())
        except UnpicklableTaskError:
            audit_plan(root)   # names the offending dataset/operator …
            raise              # … or re-raise the original if it passed
        self._epoch += 1
        msg = ("prime", self._epoch, blob, bufs)
        self._prime_key = key
        self._prime_msg = msg
        self._post_prime_msgs = []
        self.ensure_started()
        self._broadcast(msg)

    def invalidate_prime(self) -> None:
        """Force the next :meth:`prime` to re-ship (after a clear)."""
        self._prime_key = None
        self._prime_msg = None
        self._post_prime_msgs = []

    def register_shuffle(self, shuffle_id: int, refs: List) -> None:
        msg = ("shuffle", shuffle_id, refs)
        self._post_prime_msgs.append(msg)
        self._broadcast(msg)

    def map_output_path(self, shuffle_id: int, split: int) -> str:
        # unique per attempt: a retried map never appends to the partial
        # file a dying worker may have left behind
        self._next_file += 1
        return os.path.join(
            self.tmp_dir, f"s{shuffle_id}-m{split}-{self._next_file}.buckets")

    # -- dispatch --------------------------------------------------------

    def run_tasks(self, specs: Sequence[_TaskSpec],
                  session=None) -> List[Dict[str, Any]]:
        """Execute ``specs`` across the pool; results align with specs.

        Worker deaths respawn + retry through ``session`` (the
        resilience attempt ledger); user-code errors re-raise
        driver-side.  Dispatch is strict one-in-flight per worker.
        """
        if not specs:
            return []
        self.ensure_started()
        reg = get_registry()
        t_start = time.perf_counter()
        results: List[Optional[Dict[str, Any]]] = [None] * len(specs)
        pending: deque = deque(range(len(specs)))
        inflight: Dict[int, Dict[int, int]] = {}   # widx -> {tid: spec idx}
        sent_at: Dict[int, float] = {}
        busy_total = 0.0
        done = 0
        try:
            while done < len(specs):
                for w in list(self._workers):
                    if w is None or not pending:
                        continue
                    q = inflight.setdefault(w.index, {})
                    if q:   # strict request/response: one task per worker
                        continue
                    idx = pending.popleft()
                    tid = self._next_tid
                    self._next_tid += 1
                    blob, bufs = specs[idx].payload()
                    out = self.map_output_path(*specs[idx].map_out) \
                        if specs[idx].map_out else None
                    if not self._send(w, ("task", tid, out, blob, bufs)):
                        pending.appendleft(idx)
                        self._handle_death(w, inflight, pending, specs,
                                           session)
                        continue
                    q[tid] = idx
                    sent_at[tid] = time.perf_counter()
                    if reg is not None:
                        reg.counter("pool.tasks_dispatched").inc()
                conns = {w.conn: w for w in self._workers
                         if w is not None and inflight.get(w.index)}
                if not conns:
                    continue    # every busy worker just died; refilled above
                ready = mpconn.wait(list(conns), timeout=0.25)
                if not ready:
                    # nothing readable: poll for silently-dead workers
                    for w in list(conns.values()):
                        if inflight.get(w.index) and not w.proc.is_alive():
                            self._handle_death(w, inflight, pending, specs,
                                               session)
                    continue
                for conn in ready:
                    w = conns[conn]
                    try:
                        msg = conn.recv()
                    except (EOFError, OSError):
                        self._handle_death(w, inflight, pending, specs,
                                           session)
                        continue
                    if msg[0] == "ok":
                        tid = msg[1]
                        idx = inflight.get(w.index, {}).pop(tid, None)
                        if idx is None:
                            continue    # stale result of an abandoned run
                        results[idx] = closure.loads(msg[2], msg[3])
                        busy_total += results[idx].get("busy", 0.0)
                        done += 1
                        if reg is not None:
                            reg.histogram("pool.dispatch_seconds").observe(
                                time.perf_counter()
                                - sent_at.pop(tid, t_start))
                            reg.counter("pool.bytes_received").inc(
                                len(msg[2]) + sum(len(b) for b in msg[3]))
                    else:   # ("err", tid, type, traceback, blob, bufs)
                        tid = msg[1]
                        if tid is not None and inflight.get(
                                w.index, {}).pop(tid, None) is None:
                            continue    # stale error of an abandoned task
                        self._raise_remote(msg)
        except BaseException:
            # abandoning the run: replace workers still computing, so
            # their oversized late results can never clog the next run
            self._abandon(inflight)
            raise
        finally:
            self.busy_seconds += busy_total
            if reg is not None:
                elapsed = max(time.perf_counter() - t_start, 1e-9)
                alive = max(1, self.workers_alive)
                reg.counter("pool.worker_busy_seconds").inc(busy_total)
                reg.gauge("pool.utilization").set(
                    min(1.0, busy_total / (elapsed * alive)))
        return results   # type: ignore[return-value]

    def _handle_death(self, w: _Worker, inflight, pending, specs,
                      session) -> None:
        self.worker_deaths += 1
        reg = get_registry()
        if reg is not None:
            reg.counter("pool.worker_deaths").inc()
        lost = inflight.pop(w.index, {})
        try:
            w.conn.close()
        except Exception:
            pass
        try:
            w.proc.join(timeout=0.5)
            if w.proc.is_alive():
                w.proc.terminate()
                w.proc.join(timeout=1.0)
        except Exception:
            pass
        self._workers[w.index] = None
        self._spawn_worker(w.index)   # fresh worker, primed on spawn
        exhausted: Optional[RetryBudgetExhaustedError] = None
        for tid, idx in lost.items():
            pending.appendleft(idx)
            if session is not None:
                try:
                    session.record_failure(op=specs[idx].op,
                                           error="pool worker died",
                                           now=time.monotonic())
                except RetryBudgetExhaustedError as exc:
                    exhausted = exc
        if exhausted is not None:
            raise TaskFailedError(
                op=exhausted.op, job=exhausted.job, stage=exhausted.stage,
                attempts=exhausted.attempts,
                budget=exhausted.budget) from exhausted

    def _abandon(self, inflight: Dict[int, Dict[int, int]]) -> None:
        for widx, q in list(inflight.items()):
            if not q:
                continue
            w = self._workers[widx] if widx < len(self._workers) else None
            if w is None:
                continue
            try:
                w.conn.close()
            except Exception:
                pass
            try:
                w.proc.terminate()
                w.proc.join(timeout=1.0)
            except Exception:
                pass
            self._workers[widx] = None
            try:
                self._spawn_worker(widx)
            except Exception:
                pass

    @staticmethod
    def _raise_remote(msg: tuple) -> None:
        _, _tid, etype, tb, eblob, ebufs = msg
        if eblob is not None:
            try:
                exc = closure.loads(eblob, ebufs)
            except Exception:
                exc = None
            if isinstance(exc, BaseException):
                raise exc from WorkerTaskError(
                    remote_type=etype, remote_traceback=tb)
        raise WorkerTaskError(remote_type=etype, remote_traceback=tb)


# -- the pool-backed executor -------------------------------------------------


class PooledExecutor(ExecutorBase):
    """Pool-backed executor, byte-identical to :class:`LocalExecutor`.

    Shuffles materialize depth-first exactly as the local executor's do,
    but every map/narrow task runs in a pool worker; shuffle metrics,
    accumulator sequencing, cache semantics, and record order all match
    the in-process path.  The per-context retry session
    (:attr:`retry_session`) is the worker-death attempt ledger.
    """

    def __init__(self, ctx, backend: ProcessPoolBackend) -> None:
        self.ctx = ctx
        self.backend = backend
        self.shuffle_metrics: Dict[int, ShuffleMetrics] = {}
        self._size_est = SizeEstimator(ctx.cost_model)
        self._shuffle_refs: Dict[int, List] = {}
        self._shuffle_deps: Dict[int, ShuffleDependency] = {}
        self.integrity_recoveries = 0   # corrupt bucket files re-mapped
        self.retry_session = backend.retry_policy.session(
            key=f"pool-ctx{ctx.ctx_token}", job="pool")

    # -- actions (collect / count / take / reduce come from ExecutorBase) -

    def collect_partitions(self, ds: Dataset) -> List[List]:
        """All partitions of ``ds`` as lists (runs the plan in the pool)."""
        self._prepare(ds)
        return self._run_narrow(ds, list(range(ds.n_partitions)))

    def _partitions(self, ds: Dataset) -> Iterator[List]:
        self._prepare(ds)   # then one partition per round trip
        return (self._run_narrow(ds, [i])[0] for i in range(ds.n_partitions))

    def compute_partitions(self, ds: Dataset,
                           splits: Sequence[int]) -> Dict[int, List]:
        """Raw records for ``splits``, no accumulator application —
        the simulated engine's pure-stage prefetch entry point."""
        self._prepare(ds)
        parts = self._run_narrow(ds, list(splits), apply_stashes=False)
        return dict(zip(splits, parts))

    # -- internals -------------------------------------------------------

    def _prepare(self, ds: Dataset) -> None:
        self.backend.prime(self.ctx, ds, self.ctx.accumulators,
                           self._shuffle_refs)
        self._materialize_shuffles(ds)

    def _run_narrow(self, ds: Dataset, splits: List[int],
                    apply_stashes: bool = True) -> List[List]:
        specs = []
        for split in splits:
            payloads: Dict[Tuple[int, int], List] = {}
            _gather_source_payloads(ds, split, payloads)
            specs.append(_TaskSpec("narrow", ds.dataset_id, split, payloads,
                                   op=f"ds{ds.dataset_id}s{split}"))
        results = self._run_specs(specs)
        if apply_stashes:
            self._apply_stashes(results)
        return [res["records"] for res in results]

    def _run_specs(self, specs: Sequence[_TaskSpec]) -> List[Dict[str, Any]]:
        """Run tasks, recovering from corrupt shuffle bucket files.

        A worker that reads a checksum-failed bucket raises a typed
        :class:`ChecksumError` naming the spill file; the driver re-runs
        exactly the producing map task (through the retry-budget ledger),
        swaps the fresh file into the shuffle refs, and retries the batch.
        Unattributable checksum errors re-raise; the retry budget bounds
        the loop either way.
        """
        while True:
            try:
                return self.backend.run_tasks(specs,
                                              session=self.retry_session)
            except ChecksumError as exc:
                self._recover_corrupt_bucket(exc)

    def _recover_corrupt_bucket(self, exc: ChecksumError) -> None:
        loc = None
        for sid, refs in self._shuffle_refs.items():
            for m, (path, _offs) in enumerate(refs):
                if path == exc.path:
                    loc = (sid, m)
                    break
            if loc is not None:
                break
        if loc is None or loc[0] not in self._shuffle_deps:
            raise exc   # not one of ours (or refs already cleared)
        sid, m = loc
        reg = get_registry()
        if reg is not None:
            reg.counter("integrity.detected").inc()
        try:
            self.retry_session.record_failure(
                op=f"sh{sid}m{m}", error="corrupt bucket file",
                now=time.monotonic())
        except RetryBudgetExhaustedError as bexc:
            raise TaskFailedError(
                op=bexc.op, job=bexc.job, stage=bexc.stage,
                attempts=bexc.attempts, budget=bexc.budget) from exc
        dep = self._shuffle_deps[sid]
        payloads: Dict[Tuple[int, int], List] = {}
        _gather_source_payloads(dep.parent, m, payloads)
        spec = _TaskSpec("map", sid, m, payloads, op=f"sh{sid}m{m}",
                         map_out=(sid, m))
        # the original attempt of this map already applied its accumulator
        # stashes and shuffle metrics; the re-run only replaces the bytes
        (res,) = self._run_specs([spec])
        if res["map"].fallback is not None:
            shuffleio.count_sink_fallback(res["map"].fallback)
        refs = self._shuffle_refs[sid]
        refs[m] = (res["path"], res["offsets"])
        self.backend.register_shuffle(sid, refs)
        self.integrity_recoveries += 1
        if reg is not None:
            reg.counter("pool.integrity_recoveries").inc()

    def _apply_stashes(self, results: Sequence[Dict[str, Any]]) -> None:
        # results arrive spec-ordered == split-ordered: accumulator ops
        # apply in exactly the local executor's sequence
        accs = self.ctx.accumulators
        for res in results:
            for a, stash in zip(accs, res["stashes"]):
                a._apply(stash)

    def _write_shuffle(self, dep: ShuffleDependency) -> None:
        parent = dep.parent
        sid = dep.shuffle_id
        specs = []
        for split in range(parent.n_partitions):
            payloads: Dict[Tuple[int, int], List] = {}
            _gather_source_payloads(parent, split, payloads)
            specs.append(_TaskSpec("map", sid, split, payloads,
                                   op=f"sh{sid}m{split}",
                                   map_out=(sid, split)))
        self._shuffle_deps[sid] = dep
        results = self._run_specs(specs)
        self._apply_stashes(results)
        metrics = ShuffleMetrics(sid)
        for res in results:   # map-split order, as the local executor sizes
            res["map"].size(sid, self._size_est)
            metrics.add(res["map"])
        refs = [(res["path"], res["offsets"]) for res in results]
        self._shuffle_refs[sid] = refs
        self.backend.register_shuffle(sid, refs)
        self.shuffle_metrics[sid] = metrics

    # -- maintenance -----------------------------------------------------

    def clear(self) -> None:
        """Drop materialized shuffles, worker caches, and metrics."""
        self._shuffle_refs.clear()
        self._shuffle_deps.clear()
        self.shuffle_metrics.clear()
        self._size_est.invalidate()
        self.backend._broadcast(("clear",))
        self.backend.invalidate_prime()

    def uncache(self, ds: Dataset) -> None:
        """Evict a dataset's partitions from every worker's cache."""
        self.backend._broadcast(("uncache", ds.dataset_id))
