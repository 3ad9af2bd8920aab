"""Window assignment and watermark-driven aggregation.

Pure, deterministic operators over timestamped records, independent of the
DES engine so they unit-test directly:

* :func:`tumbling_window` / :func:`sliding_windows` — window assignment,
* :func:`session_windows` — gap-based session merging,
* :class:`WatermarkAggregator` — event-time aggregation with watermarks
  and allowed lateness: windows fire when the watermark passes their end;
  later records within lateness trigger corrections; beyond it they're
  dropped (and counted).
"""

from __future__ import annotations

import math
import pickle
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Hashable, Iterable, List, Optional, Tuple

from ..common.errors import StreamingError

__all__ = [
    "tumbling_window", "sliding_windows", "session_windows",
    "WatermarkAggregator", "WindowResult",
]


def tumbling_window(ts: float, size: float, offset: float = 0.0) -> Tuple[float, float]:
    """The [start, end) tumbling window of size ``size`` containing ``ts``."""
    if size <= 0:
        raise StreamingError("window size must be positive")
    start = math.floor((ts - offset) / size) * size + offset
    # float underflow (subnormal ts/size ratios) can misplace the window by
    # one slot; nudge until the half-open contract holds exactly
    while start > ts:
        start -= size
    while start + size <= ts:
        start += size
    return (start, start + size)


def sliding_windows(ts: float, size: float, slide: float) -> List[Tuple[float, float]]:
    """All [start, end) sliding windows containing ``ts``.

    ``slide <= size``; a record belongs to ``ceil(size/slide)`` windows.
    """
    if size <= 0 or slide <= 0:
        raise StreamingError("size and slide must be positive")
    if slide > size:
        raise StreamingError("slide must not exceed size (gaps would drop data)")
    first = math.floor(ts / slide) * slide
    out = []
    j = 0
    while True:
        # hop starts are computed as first - j*slide (not by repeated
        # subtraction) so the vectorized assignment grid sees the exact
        # same floats; float residue can still land a start a few ulps
        # outside the slot, so the half-open containment check is explicit
        start = first - j * slide
        if start <= ts - size:
            break
        if start <= ts < start + size:
            out.append((start, start + size))
        j += 1
    out.reverse()
    return out


def session_windows(timestamps: Iterable[float], gap: float) -> List[Tuple[float, float]]:
    """Merge sorted-or-not event times into sessions split by ``gap``.

    A session extends while consecutive events are less than ``gap``
    apart; each returned window is [first event, last event + gap).
    """
    if gap <= 0:
        raise StreamingError("session gap must be positive")
    ts = sorted(timestamps)
    if not ts:
        return []
    sessions = []
    start = prev = ts[0]
    for t in ts[1:]:
        if t - prev >= gap:
            sessions.append((start, prev + gap))
            start = t
        prev = t
    sessions.append((start, prev + gap))
    return sessions


@dataclass
class WindowResult:
    """One emitted (or corrected) window aggregate."""

    key: Hashable
    window: Tuple[float, float]
    value: Any
    correction: bool = False    # True when re-emitted due to a late record


class WatermarkAggregator:
    """Event-time windowed aggregation with bounded lateness.

    Feed ``(event_time, key, value)`` records via :meth:`add`; the
    watermark is ``max event time seen - watermark_delay``.  A window fires
    when the watermark passes its end.  Records arriving after their
    window fired but within ``allowed_lateness`` re-fire the window as a
    *correction*; beyond that they are dropped (:attr:`dropped`).

    With ``slide`` set, windows are sliding (``slide <= window_size``):
    each record joins every window containing it, and the drop / late
    decision is made per ``(record, window)`` pair.  :attr:`window_in`
    and :attr:`window_late` count accepted and late-dropped pairs per
    window, so per-window conservation is checkable:
    ``assigned(w) == window_in[w] + window_late[w]``.
    """

    def __init__(self, window_size: float,
                 agg: Callable[[Any, Any], Any],
                 init: Callable[[Any], Any] = lambda v: v,
                 watermark_delay: float = 0.0,
                 allowed_lateness: float = 0.0,
                 slide: Optional[float] = None) -> None:
        if window_size <= 0:
            raise StreamingError("window size must be positive")
        if watermark_delay < 0 or allowed_lateness < 0:
            raise StreamingError("delays must be nonnegative")
        if slide is not None and not (0 < slide <= window_size):
            raise StreamingError("slide must be in (0, window_size]")
        self.window_size = window_size
        self.slide = slide
        self.agg = agg
        self.init = init
        self.watermark_delay = watermark_delay
        self.allowed_lateness = allowed_lateness
        self._state: Dict[Tuple[Hashable, float], Any] = {}
        self._fired: Dict[Tuple[Hashable, float], bool] = {}
        self._max_ts = -math.inf
        self.dropped = 0
        self.late_corrections = 0
        #: accepted (record, window) pairs per window key
        self.window_in: Dict[Tuple[Hashable, float], int] = {}
        #: late-dropped (record, window) pairs per window key
        self.window_late: Dict[Tuple[Hashable, float], int] = {}

    @property
    def watermark(self) -> float:
        """Current watermark (-inf before any record)."""
        return self._max_ts - self.watermark_delay

    def add(self, ts: float, key: Hashable, value: Any) -> List[WindowResult]:
        """Ingest one record; returns any windows that fire as a result."""
        out: List[WindowResult] = []
        if self.slide is not None:
            pairs = sliding_windows(ts, self.window_size, self.slide)
        else:
            pairs = [tumbling_window(ts, self.window_size)]
        wm = self.watermark
        kept = False
        for start, end in pairs:
            wkey = (key, start)
            if ts <= wm - self.allowed_lateness and \
                    end + self.allowed_lateness <= wm:
                self.window_late[wkey] = self.window_late.get(wkey, 0) + 1
                continue
            kept = True
            self.window_in[wkey] = self.window_in.get(wkey, 0) + 1
            if wkey in self._state:
                self._state[wkey] = self.agg(self._state[wkey], value)
            else:
                self._state[wkey] = self.init(value)
            if self._fired.get(wkey):
                # window already emitted: immediate correction
                self.late_corrections += 1
                out.append(WindowResult(
                    key, (start, start + self.window_size),
                    self._state[wkey], correction=True))
        if not kept:
            # every window of this record is beyond lateness: the record
            # is dropped whole and must not advance the watermark
            self.dropped += 1
            return out
        self._max_ts = max(self._max_ts, ts)
        out.extend(self._advance())
        return out

    def snapshot(self) -> bytes:
        """The whole state as one protocol-4 pickle (see :meth:`restore`)."""
        return pickle.dumps((self._state, self._fired, self._max_ts,
                             self.dropped, self.late_corrections,
                             self.window_in, self.window_late), protocol=4)

    def restore(self, snap: bytes) -> None:
        """Roll back to a :meth:`snapshot` (the snapshot stays usable)."""
        (self._state, self._fired, self._max_ts, self.dropped,
         self.late_corrections, self.window_in,
         self.window_late) = pickle.loads(snap)

    def _advance(self) -> List[WindowResult]:
        wm = self.watermark
        out: List[WindowResult] = []
        for wkey in sorted(self._state,
                           key=lambda kv: (kv[1], repr(kv[0]))):
            key, start = wkey
            end = start + self.window_size
            if end <= wm and not self._fired.get(wkey):
                self._fired[wkey] = True
                out.append(WindowResult(key, (start, end), self._state[wkey]))
            if end + self.allowed_lateness <= wm and self._fired.get(wkey):
                # state can be garbage-collected
                del self._state[wkey]
        return out

    def flush(self) -> List[WindowResult]:
        """Fire every remaining window (end of stream)."""
        out = []
        for wkey in sorted(self._state,
                           key=lambda kv: (kv[1], repr(kv[0]))):
            if not self._fired.get(wkey):
                key, start = wkey
                self._fired[wkey] = True
                out.append(WindowResult(
                    key, (start, start + self.window_size),
                    self._state[wkey]))
        self._state.clear()
        return out
