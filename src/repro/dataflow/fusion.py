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

**Combine sink.**  When the chain feeds a map-side-combining shuffle and
ends in an element segment, :func:`fold_chain` compiles that trailing
segment with the combiner inlined (shape key ``kinds + ("combine",)``):
the loop folds each record straight into one dict instead of yielding
it, so the pre-combine record list is never built.  For the wordcount
shape ``flat_map → filter → map → reduce_by_key`` the generated code is::

    def _fused(_it, _fns, _create, _merge_value):
        (_f0, _f1, _f2,) = _fns
        _merged = {}
        _get = _merged.get
        _missing = _MISSING
        _n = 0
        for _v in _it:
            for _v in _f0(_v):
                if not _f1(_v):
                    continue
                _k, _x = _f2(_v)
                _n += 1
                _prev = _get(_k, _missing)
                _merged[_k] = (_create(_x) if _prev is _missing
                               else _merge_value(_prev, _x))
        return list(_merged.items()), _n

Merge calls happen in record order and keys come out in first-occurrence
order, exactly as :func:`~repro.dataflow.shuffleio._combine` over the
materialized list; ``_n`` is the pre-combine record count the cost model
charges.

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

__all__ = ["run_chain", "fold_chain", "compile_segment",
           "reset_segment_cache", "prime_segments", "segment_cache_shapes",
           "segment_shapes", "ELEMENT_KINDS", "ITER_KINDS", "SINK_KIND"]

#: Step kinds that fuse into straight-line per-record code.
ELEMENT_KINDS = ("map", "filter", "flatmap")

#: Step kinds applied as iterator wrappers (pipeline joints).
ITER_KINDS = ("iter", "iter_split")

#: Trailing shape-key entry of a segment compiled with a combine sink.
SINK_KIND = "combine"

# "no combiner yet" marker of the generated sink loop: a private object,
# so no user combiner can be identical to it
_MISSING = object()

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
    Pool workers are primed with the shapes of the plan they will run,
    combine-sink shapes included, so the first task of every worker
    pays no codegen latency.
    """
    compiled = 0
    for shape in shapes:
        key = tuple(shape)
        if key and key not in _SEGMENT_CACHE:
            compile_segment(key)
            compiled += 1
    return compiled


def segment_shapes(kinds: Sequence[str],
                   sink: bool = False) -> List[Tuple[str, ...]]:
    """Element-segment shapes :func:`run_chain` would compile for a
    fused chain with the given step kinds (iterator steps split the
    chain into separate compiled segments, exactly as ``run_chain``'s
    flush points do).  With ``sink``, the shapes :func:`fold_chain`
    compiles instead: a trailing element segment carries the
    :data:`SINK_KIND` key."""
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
        shapes.append(tuple(cur) + ((SINK_KIND,) if sink else ()))
    return shapes


def compile_segment(kinds: Tuple[str, ...]) -> Callable:
    """A function applying ``kinds`` element steps in one frame.

    For plain element shapes the returned callable is a generator
    function ``fused(it, fns) -> iterator`` where ``fns`` aligns with
    ``kinds``.  Generated code for ``("map", "filter", "flatmap")``::

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

    A shape ending in :data:`SINK_KIND` compiles the same loop with a
    combine sink in place of the ``yield``: the callable is
    ``fused(it, fns, create, merge_value) -> (items, n_folded)``.
    Generated code for ``("filter", "flatmap", "combine")``::

        def _fused(_it, _fns, _create, _merge_value):
            (_f0, _f1,) = _fns
            _merged = {}
            _get = _merged.get
            _missing = _MISSING
            _n = 0
            for _v in _it:
                if not _f0(_v):
                    continue
                for _v in _f1(_v):
                    _k, _x = _v
                    _n += 1
                    _prev = _get(_k, _missing)
                    _merged[_k] = (_create(_x) if _prev is _missing
                                   else _merge_value(_prev, _x))
            return list(_merged.items()), _n

    A trailing ``map`` unpacks its result into ``_k, _x`` directly
    (``_k, _x = _f0(_v)``).  Either way a record that is not a pair
    raises the same exception as ``_combine``'s ``for k, v in records``.
    Compiled functions are cached per step-shape.
    """
    hit = _SEGMENT_CACHE.get(kinds)
    if hit is not None:
        return hit
    sink = kinds[-1:] == (SINK_KIND,)
    body = kinds[:-1] if sink else kinds
    if not body or any(k not in ELEMENT_KINDS for k in body):
        raise ValueError(f"cannot compile segment {kinds!r}")
    names = [f"_f{i}" for i in range(len(body))]
    lines = ["def _fused(_it, _fns"
             + (", _create, _merge_value):" if sink else "):"),
             f"    ({', '.join(names)},) = _fns"]
    if sink:
        lines += ["    _merged = {}",
                  "    _get = _merged.get",
                  "    _missing = _MISSING",
                  "    _n = 0"]
    lines.append("    for _v in _it:")
    pad = "        "
    for i, kind in enumerate(body):
        if kind == "map":
            lines.append(f"{pad}_v = _f{i}(_v)")
        elif kind == "filter":
            lines.append(f"{pad}if not _f{i}(_v):")
            lines.append(f"{pad}    continue")
        else:  # flatmap
            lines.append(f"{pad}for _v in _f{i}(_v):")
            pad += "    "
    if not sink:
        lines.append(f"{pad}yield _v")
    else:
        if body[-1] == "map":
            lines[-1] = f"{pad}_k, _x = _f{len(body) - 1}(_v)"
        else:
            lines.append(f"{pad}_k, _x = _v")
        lines += [f"{pad}_n += 1",
                  f"{pad}_prev = _get(_k, _missing)",
                  f"{pad}_merged[_k] = (_create(_x) if _prev is _missing",
                  f"{pad}               else _merge_value(_prev, _x))",
                  "    return list(_merged.items()), _n"]
    namespace: Dict[str, Any] = {"_MISSING": _MISSING}
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


def fold_chain(steps: Sequence[Tuple[str, Callable]], split: int,
               it: Iterator, create: Callable[[Any], Any],
               merge_value: Callable[[Any, Any], Any],
               ) -> Tuple[List[Tuple], int]:
    """Run fused ``steps`` on ``it`` straight into a map-side combine.

    ``steps`` must end in an element step.  Everything before the
    trailing element segment runs as :func:`run_chain` would; that
    segment is compiled with a combine sink.  Returns ``(items,
    n_folded)``: the combined ``(key, combiner)`` pairs in
    first-occurrence key order, and the number of records folded (the
    length of the list the unfused path would have materialized).
    """
    cut = len(steps)
    while cut and steps[cut - 1][0] in ELEMENT_KINDS:
        cut -= 1
    if cut == len(steps):
        raise ValueError("fold_chain needs a trailing element step")
    if cut:
        it = run_chain(steps[:cut], split, it)
    tail = steps[cut:]
    sink = compile_segment(tuple(k for k, _ in tail) + (SINK_KIND,))
    return sink(it, tuple(fn for _, fn in tail), create, merge_value)
