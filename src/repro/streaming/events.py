"""Columnar event-time streaming: event batches and vectorized windows.

Micro-batches travel as :class:`EventBatch` — numpy columns ``ts`` /
``keys`` / ``values`` with the same lossless-dtype rules as the SQL
layer's ``ColumnBatch`` (via :func:`repro.sql.columnar.make_array`).
Window assignment is whole-array arithmetic (:func:`assign_tumbling`,
:func:`assign_sliding`, :func:`assign_sessions`), and
:class:`VectorizedWindowAggregator` performs watermark-driven windowed
aggregation one batch at a time: factorize the surviving
``(window, key)`` pairs, reduce with ``ufunc.at`` (sequential in array
order, so float folds are bit-identical to the per-record left fold),
and replay only the groups that need late *corrections* through the
exact scalar path.

Equivalence contract (the streaming property tests assert it):
feeding a stream through ``add_batch`` yields **byte-identical**
emissions and aggregator state to feeding the same records one at a
time through the per-record :class:`~repro.streaming.windows.
WatermarkAggregator` — which is therefore the oracle.  Inputs the fast
path cannot reproduce exactly (object/bool values, NaN or signed-zero
floats, custom fold callables) fall back to the per-record path
automatically, so the contract holds on *every* input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from ..common.errors import StreamingError
from ..sql.columnar import make_array
from .windows import (
    WatermarkAggregator,
    WindowResult,
    session_windows,
)

__all__ = [
    "EventBatch", "WindowSpec", "WindowAgg",
    "assign_tumbling", "assign_sliding", "assign_sessions",
    "VectorizedWindowAggregator", "aggregate_sessions",
]


# -- event batches -----------------------------------------------------------


class EventBatch:
    """One micro-batch of timestamped records as columns.

    ``ts`` is always float64 (event time in seconds); ``keys`` and
    ``values`` follow the ColumnBatch lossless-dtype rules: exact-type
    homogeneous int/float/bool columns get native dtypes, anything else
    stays ``object`` so ``to_records`` round-trips the original Python
    values unchanged.
    """

    __slots__ = ("ts", "keys", "values", "n")

    def __init__(self, ts: np.ndarray, keys: np.ndarray,
                 values: np.ndarray) -> None:
        ts = np.asarray(ts, dtype=np.float64)
        if not (len(ts) == len(keys) == len(values)):
            raise StreamingError("event columns must have equal length")
        self.ts = ts
        self.keys = keys
        self.values = values
        self.n = len(ts)

    @classmethod
    def from_records(
            cls, records: Sequence[Tuple[float, Hashable, Any]]
    ) -> "EventBatch":
        ts = np.array([float(r[0]) for r in records], dtype=np.float64)
        keys = make_array([r[1] for r in records])
        values = make_array([r[2] for r in records])
        return cls(ts, keys, values)

    def to_records(self) -> List[Tuple[float, Hashable, Any]]:
        return list(zip(self.ts.tolist(), self.keys.tolist(),
                        self.values.tolist()))

    def take(self, idx: np.ndarray) -> "EventBatch":
        return EventBatch(self.ts[idx], self.keys[idx], self.values[idx])

    @staticmethod
    def concat(batches: Sequence["EventBatch"]) -> "EventBatch":
        batches = [b for b in batches if b.n]
        if not batches:
            return EventBatch(np.empty(0), make_array([]), make_array([]))
        if len(batches) == 1:
            return batches[0]
        return EventBatch(
            np.concatenate([b.ts for b in batches]),
            np.concatenate([b.keys for b in batches]),
            np.concatenate([b.values for b in batches]))


# -- window specs ------------------------------------------------------------


@dataclass(frozen=True)
class WindowSpec:
    """A window shape: tumbling, sliding, or session."""

    kind: str                       # "tumbling" | "sliding" | "session"
    size: float = 0.0               # tumbling/sliding width (seconds)
    slide: Optional[float] = None   # sliding hop
    gap: Optional[float] = None     # session inactivity gap
    offset: float = 0.0             # tumbling alignment offset

    def __post_init__(self) -> None:
        if self.kind == "tumbling":
            if self.size <= 0:
                raise StreamingError("window size must be positive")
        elif self.kind == "sliding":
            if self.size <= 0 or not self.slide or self.slide <= 0:
                raise StreamingError("size and slide must be positive")
            if self.slide > self.size:
                raise StreamingError(
                    "slide must not exceed size (gaps would drop data)")
        elif self.kind == "session":
            if not self.gap or self.gap <= 0:
                raise StreamingError("session gap must be positive")
        else:
            raise StreamingError(f"unknown window kind {self.kind!r}")

    @staticmethod
    def tumbling(size: float, offset: float = 0.0) -> "WindowSpec":
        return WindowSpec("tumbling", size=size, offset=offset)

    @staticmethod
    def sliding(size: float, slide: float) -> "WindowSpec":
        return WindowSpec("sliding", size=size, slide=slide)

    @staticmethod
    def session(gap: float) -> "WindowSpec":
        return WindowSpec("session", gap=gap)


# -- aggregate specs ---------------------------------------------------------


@dataclass(frozen=True)
class WindowAgg:
    """A window reduction: a vectorizable kind plus its scalar fold.

    ``agg``/``init`` define the per-record semantics (the oracle); the
    named kinds additionally unlock the batched ``ufunc.at`` fast path.
    ``custom`` always runs per record.
    """

    kind: str                          # sum | count | min | max | custom
    agg: Callable[[Any, Any], Any]
    init: Callable[[Any], Any]

    @staticmethod
    def by_name(name: str) -> "WindowAgg":
        if name == "sum":
            return WindowAgg("sum", lambda s, v: s + v, lambda v: v)
        if name == "count":
            return WindowAgg("count", lambda s, _v: s + 1, lambda _v: 1)
        if name == "min":
            return WindowAgg("min", min, lambda v: v)
        if name == "max":
            return WindowAgg("max", max, lambda v: v)
        raise StreamingError(f"unknown aggregate {name!r}")

    @staticmethod
    def custom(agg: Callable[[Any, Any], Any],
               init: Callable[[Any], Any] = lambda v: v) -> "WindowAgg":
        return WindowAgg("custom", agg, init)


# -- vectorized window assignment -------------------------------------------


def assign_tumbling(ts: np.ndarray, size: float,
                    offset: float = 0.0) -> np.ndarray:
    """Window starts for every ``ts`` — bit-identical to the scalar path.

    Same arithmetic as :func:`~repro.streaming.windows.tumbling_window`
    (floor + nudge loops for float residue), applied whole-array.
    """
    if size <= 0:
        raise StreamingError("window size must be positive")
    ts = np.asarray(ts, dtype=np.float64)
    start = np.floor((ts - offset) / size) * size + offset
    while True:
        m = start > ts
        if not m.any():
            break
        start[m] -= size
    while True:
        m = start + size <= ts
        if not m.any():
            break
        start[m] += size
    return start


def assign_sliding(ts: np.ndarray, size: float,
                   slide: float) -> Tuple[np.ndarray, np.ndarray]:
    """All ``(record_index, window_start)`` pairs for sliding windows.

    Pairs come back record-major with starts ascending within a record —
    the exact order (and the exact float starts, ``first - j*slide``)
    of the scalar :func:`~repro.streaming.windows.sliding_windows`.
    """
    if size <= 0 or slide <= 0:
        raise StreamingError("size and slide must be positive")
    if slide > size:
        raise StreamingError(
            "slide must not exceed size (gaps would drop data)")
    ts = np.asarray(ts, dtype=np.float64)
    n = len(ts)
    if n == 0:
        return (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64))
    first = np.floor(ts / slide) * slide
    n_hops = int(math.ceil(size / slide)) + 2
    while True:
        # hop grid, descending j so starts ascend within each record
        js = np.arange(n_hops - 1, -1, -1, dtype=np.float64)
        starts = first[:, None] - js[None, :] * slide
        tcol = ts[:, None]
        mask = ((starts > tcol - size) & (starts <= tcol)
                & (tcol < starts + size))
        # the leftmost column must be entirely out of range, or the grid
        # might have truncated a float-residue window the scalar loop sees
        if not mask[:, 0].any():
            break
        n_hops += 2
    flat = np.flatnonzero(mask.ravel())
    rec = (flat // n_hops).astype(np.int64)
    return rec, starts.ravel()[flat]


def assign_sessions(
        ts: np.ndarray, gap: float
) -> Tuple[List[Tuple[float, float]], np.ndarray, np.ndarray]:
    """Sessionize timestamps: ``(windows, sort_order, session_id)``.

    ``windows`` matches :func:`~repro.streaming.windows.session_windows`
    float-for-float; ``sort_order`` is the stable ts-order permutation
    and ``session_id[i]`` the session of sorted position ``i``.
    """
    if gap <= 0:
        raise StreamingError("session gap must be positive")
    ts = np.asarray(ts, dtype=np.float64)
    n = len(ts)
    if n == 0:
        return [], np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    order = np.argsort(ts, kind="stable")
    s = ts[order]
    brk = np.flatnonzero(np.diff(s) >= gap)
    starts = s[np.concatenate(([0], brk + 1))]
    ends = s[np.concatenate((brk, [n - 1]))] + gap
    sess_id = np.zeros(n, dtype=np.int64)
    sess_id[brk + 1] = 1
    sess_id = np.cumsum(sess_id)
    windows = list(zip(starts.tolist(), ends.tolist()))
    return windows, order, sess_id


# -- fast-path eligibility ---------------------------------------------------


def _has_negative_zero(arr: np.ndarray) -> bool:
    zero = arr == 0.0
    return bool(zero.any() and np.signbit(arr[zero]).any())


def _batch_fast_ok(batch: EventBatch, kind: str) -> bool:
    """Can this batch take the ufunc fast path without changing bytes?

    Python folds and ufunc reductions differ on exactly these inputs:
    NaN (order-dependent ``min``/propagation), signed zeros (``0.0 +
    -0.0`` and ``np.minimum`` zero-sign rules), bool values (``init``
    keeps ``True`` where the vector path would store ``1``), and object
    columns.  ``count`` never reads the values, so only the key/ts
    checks apply.
    """
    if np.isnan(batch.ts).any() or _has_negative_zero(batch.ts):
        return False
    if batch.keys.dtype not in (np.dtype(np.int64), np.dtype(bool)):
        return False
    if kind == "count":
        return True
    v = batch.values
    if v.dtype == np.dtype(np.int64):
        if kind == "sum" and batch.n:
            # conservative overflow bound: the per-record Python fold
            # would promote past int64 where the vector path wraps
            bound = int(np.abs(v).max()) * (batch.n + 1)
            if bound >= 2 ** 62:
                return False
        return True
    if v.dtype == np.dtype(np.float64):
        return not (np.isnan(v).any() or _has_negative_zero(v))
    return False


_UFUNC = {"sum": np.add, "count": np.add, "min": np.minimum,
          "max": np.maximum}


# -- the batched aggregator --------------------------------------------------


class VectorizedWindowAggregator:
    """Watermark-driven windowed aggregation over event batches.

    Wraps a per-record :class:`WatermarkAggregator` (sharing its state,
    so scalar and batched adds interleave freely) and executes whole
    batches vectorized when the window/aggregate/dtype combination
    permits an exactly-equivalent array formulation.  Tumbling and
    sliding windows only — sessions have no fixed per-record window and
    aggregate offline via :func:`aggregate_sessions`.
    """

    def __init__(self, window: WindowSpec, agg: WindowAgg,
                 watermark_delay: float = 0.0,
                 allowed_lateness: float = 0.0,
                 vectorized: bool = True) -> None:
        if window.kind not in ("tumbling", "sliding"):
            raise StreamingError(
                "watermark aggregation needs tumbling or sliding windows")
        if window.kind == "tumbling" and window.offset != 0.0:
            raise StreamingError("aggregator windows are offset-aligned")
        self.window = window
        self.spec = agg
        self.vectorized = vectorized
        self._scalar = WatermarkAggregator(
            window.size, agg.agg, agg.init,
            watermark_delay=watermark_delay,
            allowed_lateness=allowed_lateness,
            slide=window.slide if window.kind == "sliding" else None)
        #: batches that took the array path vs fell back to per-record
        self.fast_batches = 0
        self.fallback_batches = 0

    # scalar delegation ------------------------------------------------------

    @property
    def watermark(self) -> float:
        return self._scalar.watermark

    @property
    def dropped(self) -> int:
        return self._scalar.dropped

    @property
    def late_corrections(self) -> int:
        return self._scalar.late_corrections

    @property
    def window_in(self) -> Dict[Tuple[Hashable, float], int]:
        return self._scalar.window_in

    @property
    def window_late(self) -> Dict[Tuple[Hashable, float], int]:
        return self._scalar.window_late

    def add(self, ts: float, key: Hashable, value: Any) -> List[WindowResult]:
        return self._scalar.add(ts, key, value)

    def flush(self) -> List[WindowResult]:
        return self._scalar.flush()

    def snapshot(self) -> bytes:
        return self._scalar.snapshot()

    def restore(self, snap: bytes) -> None:
        self._scalar.restore(snap)

    # batch ingestion --------------------------------------------------------

    def add_batch(self, batch: EventBatch) -> List[WindowResult]:
        """Ingest one batch; emissions are byte-identical to per-record."""
        if batch.n == 0:
            return []
        if (not self.vectorized or self.spec.kind == "custom"
                or not _batch_fast_ok(batch, self.spec.kind)
                or self._state_fast_ok() is False):
            self.fallback_batches += 1
            return self._add_batch_scalar(batch)
        self.fast_batches += 1
        return self._add_batch_fast(batch)

    def _add_batch_scalar(self, batch: EventBatch) -> List[WindowResult]:
        out: List[WindowResult] = []
        add = self._scalar.add
        for ts, key, value in zip(batch.ts.tolist(), batch.keys.tolist(),
                                  batch.values.tolist()):
            out.extend(add(ts, key, value))
        return out

    def _state_fast_ok(self) -> bool:
        # carried state must be re-seedable into the accumulator arrays
        # without changing bytes: Python int/float only, no NaN / -0.0
        for v in self._scalar._state.values():
            if type(v) is int:
                continue
            if type(v) is float:
                if math.isnan(v) or (v == 0.0 and math.copysign(1, v) < 0):
                    return False
                continue
            return False
        return True

    # the vectorized core ----------------------------------------------------

    def _add_batch_fast(self, batch: EventBatch) -> List[WindowResult]:
        sc = self._scalar
        n = batch.n
        ts = batch.ts
        size = self.window.size
        lateness = sc.allowed_lateness
        prev_max = sc._max_ts

        # 1. (record, window-start) pairs, record-major / starts ascending
        if self.window.kind == "tumbling":
            rec = np.arange(n, dtype=np.int64)
            starts = assign_tumbling(ts, size)
        else:
            rec, starts = assign_sliding(ts, size, self.window.slide)
        if _has_negative_zero(starts):
            # -0.0 and 0.0 starts collide as dict keys but not as bits
            self.fast_batches -= 1
            self.fallback_batches += 1
            return self._add_batch_scalar(batch)

        # 2. running watermark before/after each record.  Records the
        # scalar path drops never raise max_ts, but a dropped record's
        # ts is always <= the watermark it was dropped at, so the
        # running max over *all* ts is identical.
        run_incl = np.maximum(np.maximum.accumulate(ts), prev_max)
        run_excl = np.concatenate(([prev_max], run_incl[:-1]))
        wm_before = run_excl - sc.watermark_delay
        wm_after = run_incl - sc.watermark_delay

        # 3. per-pair drop decision (same expressions as the scalar)
        ends = starts + size
        pwm = wm_before[rec]
        drop = (ts[rec] <= pwm - lateness) & (ends + lateness <= pwm)
        kept_per_rec = np.bincount(rec[~drop], minlength=n)
        sc.dropped += int((kept_per_rec == 0).sum())

        # 4. late bookkeeping for dropped pairs
        if drop.any():
            dkeys = batch.keys[rec[drop]]
            dstarts = starts[drop]
            pairs = np.empty((len(dkeys), 2), dtype=np.int64)
            pairs[:, 0] = dkeys
            pairs[:, 1] = dstarts.view(np.int64)
            uniq, counts = np.unique(pairs, axis=0, return_counts=True)
            for (k, sbits), c in zip(uniq.tolist(), counts.tolist()):
                wkey = (bool(k) if batch.keys.dtype == bool else k,
                        float(np.int64(sbits).view(np.float64)))
                sc.window_late[wkey] = sc.window_late.get(wkey, 0) + int(c)

        keep = ~drop
        krec = rec[keep]
        kstarts = starts[keep]
        kvals = batch.values[krec] if self.spec.kind != "count" else None
        m = len(krec)

        out_tagged: List[Tuple[int, int, Any, WindowResult]] = []
        fired_order: List[Tuple[int, float, str, Tuple[Hashable, float]]] = []

        if m:
            # 5. factorize surviving (key, start) groups, first-occurrence
            # order (scalar dict-insertion order for new windows)
            pairs = np.empty((m, 2), dtype=np.int64)
            pairs[:, 0] = batch.keys[krec]
            pairs[:, 1] = kstarts.view(np.int64)
            uniq, first_idx, inv = np.unique(
                pairs, axis=0, return_index=True, return_inverse=True)
            inv = inv.ravel()
            order = np.argsort(first_idx, kind="stable")
            rank = np.empty(len(order), dtype=np.int64)
            rank[order] = np.arange(len(order))
            codes = rank[inv]                      # group id per kept pair
            n_groups = len(order)
            g_first = first_idx[order]             # first kept-pair index
            g_keys_raw = uniq[order, 0]
            g_start_bits = uniq[order, 1]
            g_starts = g_start_bits.view(np.float64)
            g_last_rec = np.zeros(n_groups, dtype=np.int64)
            np.maximum.at(g_last_rec, codes, krec)
            g_count = np.bincount(codes, minlength=n_groups)
            is_bool_keys = batch.keys.dtype == bool
            g_keys = [bool(k) if is_bool_keys else int(k)
                      for k in g_keys_raw.tolist()]
        else:
            codes = np.empty(0, dtype=np.int64)
            n_groups = 0
            g_first = g_last_rec = g_count = np.empty(0, dtype=np.int64)
            g_starts = np.empty(0, dtype=np.float64)
            g_keys = []

        wkeys = [(g_keys[g], float(g_starts[g])) for g in range(n_groups)]
        pre_state = [sc._state.get(w) for w in wkeys]
        pre_exists = [w in sc._state for w in wkeys]
        pre_fired = [bool(sc._fired.get(w)) for w in wkeys]

        # 6. fire records: first index whose post-record watermark passes
        # the window end; a new window can't fire before it exists
        g_ends = g_starts + size
        fire_at = np.searchsorted(wm_after, g_ends, side="left")
        fire_rec = [int(f) for f in fire_at]
        for g in range(n_groups):
            if not pre_exists[g]:
                fire_rec[g] = max(fire_rec[g], int(g_first_rec(krec, g_first, g)))
            if pre_fired[g]:
                fire_rec[g] = -1                   # fired in an earlier batch

        # pre-existing unfired windows with no pairs this batch still
        # fire when the watermark passes them
        idle: List[Tuple[Hashable, float]] = []
        seen = set(wkeys)
        final_wm = float(run_incl[-1]) - sc.watermark_delay
        for wkey in sc._state:
            if wkey in seen or sc._fired.get(wkey):
                continue
            end = wkey[1] + size
            f = int(np.searchsorted(wm_after, end, side="left"))
            if f < n:
                idle.append((f, wkey))

        # 7. per-group aggregation.  Groups needing corrections (already
        # fired, or receiving pairs after their in-batch fire) replay
        # their own pairs through the exact scalar fold; the rest reduce
        # with a single seeded ufunc.at (sequential in pair order, so
        # float folds keep the scalar's association).
        pair_order = np.argsort(codes, kind="stable") if m else codes
        bounds = np.searchsorted(codes[pair_order],
                                 np.arange(n_groups + 1)) if m else None
        ufunc = _UFUNC[self.spec.kind]
        needs_replay = [
            pre_fired[g] or (0 <= fire_rec[g] < n
                             and int(g_last_rec[g]) > fire_rec[g])
            for g in range(n_groups)]
        fast_groups = [g for g in range(n_groups) if not needs_replay[g]]

        g_value: List[Any] = [None] * n_groups
        if fast_groups:
            fg = np.array(fast_groups, dtype=np.int64)
            in_fast = np.zeros(n_groups, dtype=bool)
            in_fast[fg] = True
            sel = in_fast[codes]
            if self.spec.kind == "count":
                acc = np.zeros(n_groups, dtype=np.int64)
                for g in fast_groups:
                    if pre_exists[g]:
                        acc[g] = pre_state[g]
                np.add.at(acc, codes[sel], 1)
                for g in fast_groups:
                    g_value[g] = int(acc[g])
            else:
                is_int = kvals.dtype == np.dtype(np.int64)
                if self.spec.kind == "sum":
                    fill = 0
                elif self.spec.kind == "min":
                    fill = np.iinfo(np.int64).max if is_int else math.inf
                else:
                    fill = np.iinfo(np.int64).min if is_int else -math.inf
                acc = np.full(n_groups, fill,
                              dtype=np.int64 if is_int else np.float64)
                for g in fast_groups:
                    if pre_exists[g]:
                        acc[g] = pre_state[g]
                ufunc.at(acc, codes[sel], kvals[sel])
                for g in fast_groups:
                    g_value[g] = int(acc[g]) if is_int else float(acc[g])

        agg, init = sc.agg, sc.init
        for g in range(n_groups):
            if not needs_replay[g]:
                continue
            st = pre_state[g] if pre_exists[g] else None
            have = pre_exists[g]
            fire_value = st
            lo, hi = int(bounds[g]), int(bounds[g + 1])
            for p in pair_order[lo:hi].tolist():
                r = int(krec[p])
                v = (1 if self.spec.kind == "count"
                     else kvals[p].item())
                st = agg(st, v) if have else init(v)
                have = True
                if pre_fired[g] or (0 <= fire_rec[g] < r):
                    sc.late_corrections += 1
                    out_tagged.append((r, 0, p, WindowResult(
                        g_keys[g], (float(g_starts[g]),
                                    float(g_starts[g]) + size),
                        st, correction=True)))
                if 0 <= fire_rec[g] and r <= fire_rec[g]:
                    fire_value = st
            g_value[g] = st
            if needs_replay[g] and not pre_fired[g] and 0 <= fire_rec[g] < n:
                fired_order.append(
                    (fire_rec[g], float(g_starts[g]), repr(g_keys[g]),
                     wkeys[g]))
                out_tagged.append((fire_rec[g], 1, 0, WindowResult(
                    g_keys[g], (float(g_starts[g]),
                                float(g_starts[g]) + size), fire_value)))

        for g in fast_groups:
            if 0 <= fire_rec[g] < n:
                fired_order.append(
                    (fire_rec[g], float(g_starts[g]), repr(g_keys[g]),
                     wkeys[g]))
                out_tagged.append((fire_rec[g], 1, 0, WindowResult(
                    g_keys[g], (float(g_starts[g]),
                                float(g_starts[g]) + size), g_value[g])))
        for f, wkey in idle:
            fired_order.append((f, wkey[1], repr(wkey[0]), wkey))
            out_tagged.append((f, 1, 0, WindowResult(
                wkey[0], (wkey[1], wkey[1] + size), sc._state[wkey])))

        # 8. commit state in the scalar's insertion order: new windows
        # appear at their first kept pair, existing entries keep their
        # slot; accounting and the max-ts watermark advance with them
        for g in sorted(range(n_groups), key=lambda g: int(g_first[g])):
            sc._state[wkeys[g]] = g_value[g]
            sc.window_in[wkeys[g]] = (sc.window_in.get(wkeys[g], 0)
                                      + int(g_count[g]))
        if n:
            sc._max_ts = max(prev_max, float(run_incl[-1]))

        # fired flags in chronological fire order, (start, repr) ties —
        # the order the scalar's _advance sweeps assign them
        for _f, _s, _r, wkey in sorted(
                fired_order, key=lambda e: (e[0], e[1], e[2])):
            sc._fired[wkey] = True

        # 9. end-of-batch GC with the final watermark.  The scalar GCs
        # mid-sweep, but a collected window can never be re-created (any
        # later pair for it is necessarily dropped: ts < end <= wm -
        # lateness), so collecting once at the end removes exactly the
        # same entries.
        for wkey in [w for w in sc._state
                     if w[1] + size + lateness <= final_wm
                     and sc._fired.get(w)]:
            del sc._state[wkey]

        # 10. interleave emissions exactly as the scalar would: per
        # record, corrections (in pair order) precede the _advance
        # sweep's fires (sorted by start, then repr(key))
        def sort_key(e):
            r, phase, tie, res = e
            if phase == 0:
                return (r, 0, tie, "")
            return (r, 1, res.window[0], repr(res.key))
        out_tagged.sort(key=sort_key)
        return [res for _r, _p, _t, res in out_tagged]


def g_first_rec(krec: np.ndarray, g_first: np.ndarray, g: int) -> int:
    """Record index of a group's first kept pair."""
    return int(krec[int(g_first[g])])


# -- session aggregation -----------------------------------------------------


def aggregate_sessions(batch: EventBatch, gap: float, agg: WindowAgg,
                       vectorized: bool = True
                       ) -> List[Tuple[Hashable, Tuple[float, float], Any]]:
    """Per-key session aggregation of one (complete) batch of events.

    Sessions close over the whole batch (no watermark: session windows
    have no fixed per-record extent, so they aggregate offline once the
    batch is complete).  Output order is key-first-appearance, sessions
    ascending — and the vectorized path is byte-identical to the scalar
    reference (``vectorized=False``), falling back automatically on
    inputs the ufunc fold cannot reproduce exactly.
    """
    if gap <= 0:
        raise StreamingError("session gap must be positive")
    if batch.n == 0:
        return []
    if (not vectorized or agg.kind == "custom"
            or not _batch_fast_ok(batch, agg.kind)):
        return _aggregate_sessions_scalar(batch, gap, agg)

    ts, keys, vals = batch.ts, batch.keys, batch.values
    n = batch.n
    # key codes in first-appearance order
    uk, kfirst, kinv = np.unique(keys, return_index=True, return_inverse=True)
    kinv = kinv.ravel()
    korder = np.argsort(kfirst, kind="stable")
    krank = np.empty(len(korder), dtype=np.int64)
    krank[korder] = np.arange(len(korder))
    codes = krank[kinv]
    # stable (key, ts, original-position) sort = the scalar's per-key
    # sorted() over records in arrival order
    perm = np.lexsort((np.arange(n), ts, codes))
    sk, st = codes[perm], ts[perm]
    new_sess = np.empty(n, dtype=bool)
    new_sess[0] = True
    new_sess[1:] = (sk[1:] != sk[:-1]) | (st[1:] - st[:-1] >= gap)
    sess = np.cumsum(new_sess) - 1
    n_sess = int(sess[-1]) + 1
    first_pos = np.searchsorted(sess, np.arange(n_sess))
    last_pos = np.searchsorted(sess, np.arange(n_sess), side="right") - 1
    starts = st[first_pos]
    ends = st[last_pos] + gap
    sess_key_code = sk[first_pos]

    if agg.kind == "count":
        acc = np.zeros(n_sess, dtype=np.int64)
        np.add.at(acc, sess, 1)
        values = [int(v) for v in acc]
    else:
        sv = vals[perm]
        is_int = sv.dtype == np.dtype(np.int64)
        if agg.kind == "sum":
            fill = 0
        elif agg.kind == "min":
            fill = np.iinfo(np.int64).max if is_int else math.inf
        else:
            fill = np.iinfo(np.int64).min if is_int else -math.inf
        acc = np.full(n_sess, fill, dtype=np.int64 if is_int else np.float64)
        _UFUNC[agg.kind].at(acc, sess, sv)
        values = [int(v) if is_int else float(v) for v in acc]

    is_bool_keys = keys.dtype == bool
    ukeys = [bool(k) if is_bool_keys else k for k in uk[korder].tolist()]
    return [(ukeys[int(sess_key_code[s])],
             (float(starts[s]), float(ends[s])), values[s])
            for s in range(n_sess)]


def _aggregate_sessions_scalar(
        batch: EventBatch, gap: float, agg: WindowAgg
) -> List[Tuple[Hashable, Tuple[float, float], Any]]:
    """Per-record reference: group by key, sort, gap-split, left-fold."""
    by_key: Dict[Hashable, List[Tuple[float, Any]]] = {}
    for ts, key, value in zip(batch.ts.tolist(), batch.keys.tolist(),
                              batch.values.tolist()):
        by_key.setdefault(key, []).append((ts, value))
    out: List[Tuple[Hashable, Tuple[float, float], Any]] = []
    for key, pairs in by_key.items():
        pairs = sorted(pairs, key=lambda p: p[0])
        sessions = session_windows([p[0] for p in pairs], gap)
        i = 0
        for start, end in sessions:
            st = None
            have = False
            while i < len(pairs) and pairs[i][0] < end:
                v = pairs[i][1]
                st = agg.agg(st, v) if have else agg.init(v)
                have = True
                i += 1
            out.append((key, (start, end), st))
    return out
