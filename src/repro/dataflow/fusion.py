"""Narrow-chain fusion: run a stage's operator pipeline in one frame.

Without fusion, every narrow operator in a chain adds a Python generator
frame per record: ``a.map(f).filter(p).map(g)`` pulls each record through
three nested generators, and the interpretation overhead — not I/O —
dominates once the data path is tuned (the Spark SQL whole-stage-codegen
and MonetDB/X100 observation).  Fusion collapses a run of
:class:`~repro.dataflow.plan.MappedDataset` ops into **one compiled
generator function**: element-wise steps (map / filter / flat_map) become
straight-line statements inside a single ``for`` loop, generated as
source text and ``compile``'d once per step-shape (the code cache is
keyed on the tuple of step kinds, so every ``map→filter→map`` chain in
the process shares one code object).

Iterator-level steps (``map_partitions``, ``with_split`` ops) cannot be
inlined per element; they act as *pipeline joints*: the fused chain is
split into element segments around them and each joint wraps the
iterator exactly as the unfused path would.

Fusion is a wall-clock optimization only — results, lineage, cache
semantics, and the simulated cost model are unchanged (the chaos
harness's recovery-equivalence oracles run with fusion enabled).  The
chain-walk itself, including the barrier rules (cached datasets,
multi-consumer datasets, non-fusible ops like ``sample``), lives in
:meth:`~repro.dataflow.plan.MappedDataset._fused_chain`; this module
owns the code generation.  ``ExecOptions(fusion=False)`` on a context
selects the per-op reference path instead.
"""

from __future__ import annotations

from typing import (
    Any, Callable, Dict, Iterable, Iterator, List, Sequence, Tuple,
)

__all__ = ["run_chain", "compile_segment",
           "reset_segment_cache", "prime_segments", "segment_cache_shapes",
           "segment_shapes", "ELEMENT_KINDS", "ITER_KINDS"]

#: Step kinds that fuse into straight-line per-record code.
ELEMENT_KINDS = ("map", "filter", "flatmap")

#: Step kinds applied as iterator wrappers (pipeline joints).
ITER_KINDS = ("iter", "iter_split")

# -- whole-segment code generation -------------------------------------------

# The compiled-segment cache is strictly per-process state: compiled code
# objects must never be *inherited* across fork() or shipped to spawn()ed
# children — each worker process calls reset_segment_cache() on startup
# and rebuilds its own cache, either lazily through compile_segment or
# eagerly via prime_segments (the pool backend primes workers with the
# step shapes of the job it is about to dispatch).
_SEGMENT_CACHE: Dict[Tuple[str, ...], Callable] = {}


def reset_segment_cache() -> None:
    """Drop every compiled segment (each process rebuilds its own)."""
    _SEGMENT_CACHE.clear()


def segment_cache_shapes() -> Tuple[Tuple[str, ...], ...]:
    """The step shapes currently compiled in this process."""
    return tuple(_SEGMENT_CACHE.keys())


def prime_segments(shapes: Iterable[Sequence[str]]) -> int:
    """Eagerly compile ``shapes`` into this process's segment cache.

    Returns the number of segments compiled (cache hits don't count).
    Pool workers are primed with the shapes of the plan they will run so
    the first task of every worker pays no codegen latency.
    """
    compiled = 0
    for shape in shapes:
        key = tuple(shape)
        if key and key not in _SEGMENT_CACHE:
            compile_segment(key)
            compiled += 1
    return compiled


def segment_shapes(kinds: Sequence[str]) -> List[Tuple[str, ...]]:
    """Element-segment shapes :func:`run_chain` would compile for a
    fused chain with the given step kinds (iterator steps split the
    chain into separate compiled segments, exactly as ``run_chain``'s
    flush points do)."""
    shapes: List[Tuple[str, ...]] = []
    cur: List[str] = []
    for kind in kinds:
        if kind in ELEMENT_KINDS:
            cur.append(kind)
        else:
            if cur:
                shapes.append(tuple(cur))
                cur = []
    if cur:
        shapes.append(tuple(cur))
    return shapes


def compile_segment(kinds: Tuple[str, ...]) -> Callable:
    """A generator function applying ``kinds`` element steps in one frame.

    The returned callable has signature ``fused(it, fns) -> iterator``
    where ``fns`` aligns with ``kinds``.  Generated code for
    ``("map", "filter", "flatmap")``::

        def _fused(_it, _fns):
            (_f0, _f1, _f2,) = _fns
            for _v in _it:
                _v = _f0(_v)
                if not _f1(_v):
                    continue
                for _v in _f2(_v):
                    yield _v

    ``continue`` inside a nested flat_map loop skips only the current
    inner element — exactly the unfused filter semantics at that depth.
    Compiled functions are cached per step-shape.
    """
    hit = _SEGMENT_CACHE.get(kinds)
    if hit is not None:
        return hit
    if not kinds or any(k not in ELEMENT_KINDS for k in kinds):
        raise ValueError(f"cannot compile segment {kinds!r}")
    names = [f"_f{i}" for i in range(len(kinds))]
    lines = ["def _fused(_it, _fns):",
             f"    ({', '.join(names)},) = _fns",
             "    for _v in _it:"]
    pad = "        "
    for i, kind in enumerate(kinds):
        if kind == "map":
            lines.append(f"{pad}_v = _f{i}(_v)")
        elif kind == "filter":
            lines.append(f"{pad}if not _f{i}(_v):")
            lines.append(f"{pad}    continue")
        else:  # flatmap
            lines.append(f"{pad}for _v in _f{i}(_v):")
            pad += "    "
    lines.append(f"{pad}yield _v")
    namespace: Dict[str, Any] = {}
    code = compile("\n".join(lines), f"<fused:{'-'.join(kinds)}>", "exec")
    exec(code, namespace)
    fn = namespace["_fused"]
    _SEGMENT_CACHE[kinds] = fn
    return fn


def run_chain(steps: Sequence[Tuple[str, Callable]], split: int,
              it: Iterator) -> Iterator:
    """Apply fused ``steps`` (deepest first) to partition iterator ``it``.

    Element steps are grouped into compiled segments; iterator steps wrap
    the stream in place, exactly as their unfused ``compute`` would.
    """
    seg_kinds: List[str] = []
    seg_fns: List[Callable] = []

    def flush(stream: Iterator) -> Iterator:
        if not seg_kinds:
            return stream
        fused = compile_segment(tuple(seg_kinds))(stream, tuple(seg_fns))
        seg_kinds.clear()
        seg_fns.clear()
        return fused

    for kind, fn in steps:
        if kind in ELEMENT_KINDS:
            seg_kinds.append(kind)
            seg_fns.append(fn)
        elif kind == "iter":
            it = iter(fn(flush(it)))
        elif kind == "iter_split":
            it = iter(fn(split, flush(it)))
        else:
            raise ValueError(f"unknown fused step kind {kind!r}")
    return flush(it)
