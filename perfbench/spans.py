"""Per-layer wall-time attribution from outside the program.

:class:`LayerTracer` wraps the public entry points of each layer for the
length of one traced job and keeps a span per call: name, start, end,
parent span and job id.  A span's *self time* is its duration minus the
durations of its child spans, so self times never double-count and the
self times of one job, root span included, add up to its wall time.

Kernel dispatches are attributed through ``Simulator.attach_observer``:
the observer opens a span named after the layer of the process the
event resumes (by process-name prefix), and the wrapped
``Simulator.step`` closes it when the dispatch returns.

:meth:`LayerTracer.patched` installs every wrapper and restores the
original objects on exit, so untraced jobs run the unwrapped code.
"""

from __future__ import annotations

import contextlib
import time
from array import array
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

import repro.dataflow.engine as df_engine
import repro.net.netsim as netsim
from repro.common.pqueue import IndexedHeap
from repro.dataflow.plan import Dataset
from repro.net.topology import Topology
from repro.simcore import Process, Simulator
from repro.storage import integrity
from repro.storage.reedsolomon import RSCode

__all__ = ["LAYERS", "LayerTracer", "self_times"]

#: Span names, one per self-time bucket.  ``job`` is the root span; its
#: self time is ``trace.other_s``.
LAYERS = ("job", "simcore", "simcore.queue", "net", "net.rate_solve",
          "net.route", "cluster", "storage.dfs", "storage.rs",
          "storage.integrity", "dataflow.engine", "dataflow.operator",
          "dataflow.shuffle_write")
_ID = {name: i for i, name in enumerate(LAYERS)}
_NET, _SIMCORE = _ID["net"], _ID["simcore"]
_SOLVE, _ITER = _ID["net.rate_solve"], _ID["dataflow.operator"]


def _dispatch_layer(proc_name: str) -> int:
    """The layer that owns a kernel dispatch, from the resumed process."""
    if proc_name.startswith("xfer") or proc_name == "net-waker":
        return _NET
    if proc_name.startswith("fluid-") or proc_name.endswith(".compute"):
        return _ID["cluster"]
    if proc_name.startswith("dfs-"):
        return _ID["storage.dfs"]
    if proc_name.startswith(("task:", "job:")):
        return _ID["dataflow.engine"]
    return _SIMCORE


def _resumed_process(event) -> Optional[Process]:
    for cb in event.callbacks or ():
        owner = getattr(cb, "__self__", None)
        if isinstance(owner, Process):
            return owner
    return None


class LayerTracer:
    """Span log and counters for traced jobs (one job in flight)."""

    def __init__(self) -> None:
        self._name = array("b")
        self._job = array("i")
        self._parent = array("i")
        self._start = array("d")
        self._end = array("d")
        self._stack: List[int] = []          # ids of the open spans
        self._job_id = -1
        self._iter_depth = 0
        self.rate_solves = 0
        self.waker_dispatches = 0
        self.waker_useful = 0
        self.integrity_bytes = 0
        self._waker_open: Optional[Tuple[int, int]] = None

    # -- spans ---------------------------------------------------------

    def _open(self, layer: int) -> int:
        sid = len(self._name)
        self._name.append(layer)
        self._job.append(self._job_id)
        self._parent.append(self._stack[-1] if self._stack else -1)
        self._start.append(time.perf_counter())
        self._end.append(0.0)
        self._stack.append(sid)
        return sid

    def _close(self, sid: int) -> None:
        self._end[sid] = time.perf_counter()
        if self._stack.pop() != sid:
            raise RuntimeError(f"span {sid} closed out of order")

    def _timed(self, layer: int, fn: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            sid = self._open(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(sid)
        return wrapper

    @contextlib.contextmanager
    def job(self, job_id: int) -> Iterator[None]:
        """Root span of one traced job."""
        self._job_id = job_id
        sid = self._open(_ID["job"])
        try:
            yield
        finally:
            while self._stack and self._stack[-1] != sid:
                self._close(self._stack[-1])
            self._close(sid)
            self._job_id = -1

    # -- kernel observer ----------------------------------------------

    def on_event(self, sim, event, t: float) -> None:
        proc = _resumed_process(event)
        layer = _dispatch_layer(proc.name) if proc is not None else _SIMCORE
        sid = self._open(layer)
        if proc is not None and proc.name == "net-waker":
            self.waker_dispatches += 1
            self._waker_open = (sid, self.rate_solves)

    def _end_dispatch(self, step_sid: int) -> None:
        while self._stack and self._stack[-1] != step_sid:
            sid = self._stack[-1]
            if self._waker_open is not None and self._waker_open[0] == sid:
                if self.rate_solves > self._waker_open[1]:
                    self.waker_useful += 1
                self._waker_open = None
            self._close(sid)

    # -- wrappers -------------------------------------------------------

    def _step(self, orig: Callable) -> Callable:
        tracer = self

        def step(sim):
            sid = tracer._open(_SIMCORE)
            try:
                orig(sim)
            finally:
                tracer._end_dispatch(sid)
                tracer._close(sid)
        return step

    def _allocate(self, orig: Callable) -> Callable:
        timed = self._timed(_SOLVE, orig)

        def allocate_rates(*args, **kwargs):
            self.rate_solves += 1
            return timed(*args, **kwargs)
        return allocate_rates

    def _iterate(self, orig: Callable) -> Callable:
        tracer = self

        def iterate(ds, split, runtime):
            if tracer._iter_depth:
                return orig(ds, split, runtime)
            tracer._iter_depth = 1
            sid = tracer._open(_ITER)
            try:
                records = list(orig(ds, split, runtime))
            finally:
                tracer._close(sid)
                tracer._iter_depth = 0
            return iter(records)
        return iterate

    def _checksum(self, orig: Callable) -> Callable:
        def counted(data, *args, **kwargs):
            self.integrity_bytes += len(data)
            return orig(data, *args, **kwargs)
        return self._timed(_ID["storage.integrity"], counted)

    def _patches(self) -> List[Tuple[Any, str, Callable]]:
        """(owner, attribute, wrapper factory) for every wrapped entry."""
        timed = self._timed
        return [
            (Simulator, "step", self._step),
            (IndexedHeap, "push", lambda f: timed(_ID["simcore.queue"], f)),
            (IndexedHeap, "pop", lambda f: timed(_ID["simcore.queue"], f)),
            (netsim, "allocate_rates", self._allocate),
            (Topology, "path", lambda f: timed(_ID["net.route"], f)),
            (RSCode, "encode", lambda f: timed(_ID["storage.rs"], f)),
            (RSCode, "decode", lambda f: timed(_ID["storage.rs"], f)),
            (RSCode, "reconstruct_fragment",
             lambda f: timed(_ID["storage.rs"], f)),
            (integrity, "seal", self._checksum),
            (integrity, "verify", self._checksum),
            (integrity, "seal_object",
             lambda f: timed(_ID["storage.integrity"], f)),
            (integrity, "verify_object",
             lambda f: timed(_ID["storage.integrity"], f)),
            (Dataset, "iterate", self._iterate),
            (df_engine, "write_buckets",
             lambda f: timed(_ID["dataflow.shuffle_write"], f)),
        ]

    @contextlib.contextmanager
    def patched(self) -> Iterator[None]:
        """Install every wrapper; put the original objects back on exit."""
        saved = []
        try:
            for owner, attr, wrap in self._patches():
                orig = getattr(owner, attr)
                saved.append((owner, attr, orig))
                setattr(owner, attr, wrap(orig))
            yield
        finally:
            for owner, attr, orig in reversed(saved):
                setattr(owner, attr, orig)

    # -- results --------------------------------------------------------

    def spans(self) -> Dict[str, np.ndarray]:
        """The span log as arrays (one row per span)."""
        return {
            "name": np.frombuffer(self._name, dtype=np.int8).copy(),
            "job": np.frombuffer(self._job, dtype=np.int32).copy(),
            "parent": np.frombuffer(self._parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self._start, dtype=np.float64).copy(),
            "end": np.frombuffer(self._end, dtype=np.float64).copy(),
        }

    def write(self, path: str) -> None:
        """Write the span log (``.npz``; ``names`` maps name ids)."""
        np.savez(path, names=np.array(LAYERS), **self.spans())


def self_times(spans: Dict[str, np.ndarray]) \
        -> Tuple[Dict[int, Dict[str, float]], Dict[int, float]]:
    """Per job: self seconds of each layer, and the root span's duration.

    Raises ValueError when a span is still open or when children cover
    more than their parent's interval (spans that are not nested).
    """
    dur = spans["end"] - spans["start"]
    if np.any(spans["end"] == 0.0):
        raise ValueError("span log holds an unclosed span")
    parent = spans["parent"]
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent],
                        minlength=len(dur))
    self_s = dur - child
    if np.any(self_s < -1e-6):
        raise ValueError("child spans overrun their parent")
    by_job: Dict[int, Dict[str, float]] = {}
    walls: Dict[int, float] = {}
    names, jobs = spans["name"], spans["job"]
    for job in np.unique(jobs):
        mask = jobs == job
        sums = np.bincount(names[mask], weights=self_s[mask],
                           minlength=len(LAYERS))
        by_job[int(job)] = {LAYERS[i]: float(sums[i])
                            for i in range(len(LAYERS))}
        roots = mask & ~has_parent
        walls[int(job)] = float(dur[roots].sum())
    return by_job, walls
