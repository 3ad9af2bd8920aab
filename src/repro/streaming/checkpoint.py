"""Stateful stream processing with checkpointing and crash recovery.

Models the operator-state recovery problem: a stateful operator (running
aggregates keyed by record key) periodically checkpoints its state; on a
crash it reloads the last checkpoint and *replays* the source from that
offset (source-rewind / upstream-backup semantics).  The simulation
quantifies the classic tradeoff swept by experiment A4:

* short checkpoint intervals — high steady-state overhead, fast recovery;
* long intervals — negligible overhead, long replay after a crash.

State correctness is real: after recovery the operator state equals the
no-failure run's state exactly (tests assert it), demonstrating
exactly-once state semantics via replay.

Snapshots are stored as sealed pickle blobs (chunk CRCs, see
:mod:`repro.storage.integrity`), and both runs accept ``corrupt_times``
— instants at which a silent bit-flip rots the newest intact snapshot.
Recovery *verifies* each candidate checkpoint and falls back past
corrupt ones (counting them), so a crash after corruption still
restores exactly-once state — it just replays from an older offset.
The genesis snapshot is never corrupted, so recovery always terminates.
"""

from __future__ import annotations

import zlib
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Hashable, List, Optional, Sequence, Tuple

from ..common.errors import ChecksumError, StreamingError
from ..obs import trace as obs_trace
from ..obs.metrics import MetricsRegistry
from ..storage import integrity
from .events import EventBatch, VectorizedWindowAggregator, WindowAgg, WindowSpec
from .windows import WindowResult

__all__ = ["CheckpointConfig", "RecoveryStats", "StatefulRun",
           "run_stateful_stream", "WindowedRun", "run_windowed_stream"]


CHECKPOINT_COST = 0.2      # seconds of pipeline stall per snapshot
REPLAY_SPEEDUP = 4.0       # replay runs this much faster than live
RECOVERY_FIXED_COST = 1.0  # restart + state-load seconds


@dataclass(frozen=True)
class CheckpointConfig:
    """Checkpointing knobs."""

    interval: float = 10.0            # seconds between checkpoints

    def __post_init__(self) -> None:
        if self.interval <= 0:
            raise StreamingError("bad checkpoint parameters")


class _SnapshotLog:
    """The checkpoint store behind both streaming runs.

    Each entry is ``(t, blob, offset, emitted, seal)``: the operator
    state as a :func:`~repro.storage.integrity.seal_object` blob — which
    also isolates it from later in-place mutation of the live state —
    and its chunk-CRC :class:`~repro.storage.integrity.Seal`.  Recovery
    *verifies* candidates and falls back past corrupt ones, and the
    chaos ``data_corrupt`` adapter rots blobs through :meth:`corrupt`.
    Counters keep the oracle's identity exact:
    ``injected == detected + latent`` (a detected snapshot is deleted,
    so it is counted at most once; :meth:`audit_latent` closes the books
    on blobs that rotted but were never read).
    """

    def __init__(self, reg: MetricsRegistry, lane: Tuple[str, str]) -> None:
        self.entries: List[Tuple] = []
        self.lane = lane
        self.c_injected = reg.counter("integrity.injected")
        self.c_detected = reg.counter("integrity.detected")
        self.c_latent = reg.counter("integrity.latent")
        self._rotten: set = set()        # checkpoint times already corrupted

    def append(self, t: float, state, offset: int, emitted: int) -> None:
        blob, seal = integrity.seal_object(state)
        self.entries.append((t, blob, offset, emitted, seal))

    def pick(self, t_max: float) -> Tuple[float, Any, int, int]:
        """Newest verifiable entry at or before ``t_max``.

        Returns ``(t, state, offset, emitted)`` with the state unpickled
        (a fresh object — the stored blob stays pristine).  Corrupt
        candidates are counted, dropped from the log, and skipped; the
        genesis snapshot is never corrupted, so this always returns.
        """
        tr = obs_trace.get_tracer()
        for pos in range(len(self.entries) - 1, -1, -1):
            t, blob, offset, emitted, seal = self.entries[pos]
            if t > t_max:
                continue
            try:
                state = integrity.verify_object(blob, seal,
                                                layer="checkpoint",
                                                path=f"ckpt@{t:g}")
            except ChecksumError:
                self.c_detected.inc()
                if tr is not None:
                    tr.instant("integrity_detected", t_max, lane=self.lane,
                               cat="integrity", checkpoint=t)
                del self.entries[pos]
                continue
            return t, state, offset, emitted
        raise StreamingError("no usable checkpoint")

    def corrupt(self, at: float) -> bool:
        """Chaos hook: flip one byte in the newest intact snapshot blob.

        The byte offset is derived from the injection time, so a given
        fault plan rots the same byte on every run.  The genesis snapshot
        is exempt (recovery always has a pristine floor) and an
        already-rotten blob is never hit twice; returns False — nothing
        counted — when no eligible snapshot exists yet.
        """
        for pos in range(len(self.entries) - 1, 0, -1):
            entry = self.entries[pos]
            if entry[0] in self._rotten:
                continue
            blob = entry[1]
            off = zlib.crc32(f"{at:.6f}".encode()) % len(blob)
            self.entries[pos] = (entry[0], integrity.flip_byte(blob, off)) \
                + entry[2:]
            self._rotten.add(entry[0])
            self.c_injected.inc()
            return True
        return False

    def audit_latent(self) -> int:
        """End-of-run audit: corrupt snapshots that were never read."""
        latent = 0
        for entry in self.entries:
            try:
                integrity.verify(entry[1], entry[-1])
            except ChecksumError:
                latent += 1
        self.c_latent.inc(latent)
        return latent


def _merge_incidents(crash_times: Sequence[float],
                     corrupt_times: Sequence[float]) -> List[Tuple[float, str]]:
    """One time-ordered incident list; corruption sorts before a
    same-instant crash so the crash recovers from the rotted log."""
    return sorted([(float(t), "corrupt") for t in corrupt_times]
                  + [(float(t), "crash") for t in crash_times])


@dataclass
class RecoveryStats:
    """What one crash cost."""

    crash_time: float
    checkpoint_offset: float        # event-time the state was rolled back to
    replayed_events: int
    recovery_seconds: float         # fixed cost + replay time


def _run_checkpointed(
    events: Sequence[Tuple],
    feed: Callable[[Sequence[Tuple]], Sequence[WindowResult]],
    snapshot: Callable[[], Any],
    restore: Callable[[Any], None],
    config: CheckpointConfig,
    crash_times: Sequence[float],
    corrupt_times: Sequence[float],
    batch_records: int,
    lane: Tuple[str, str],
) -> Tuple[List[WindowResult], int, float, List[RecoveryStats],
           MetricsRegistry]:
    """The checkpoint / incident / replay loop behind both runs.

    ``events`` are tuples whose first field is the arrival time; they
    are pushed through the operator in arrival order, ``feed(slice)`` at
    a time, and whatever ``feed`` returns joins the emission log.  Every
    ``config.interval`` a checkpoint seals ``snapshot()`` together with
    the source offset and the emission-log length.  A crash rolls both
    back — ``restore`` the verified snapshot, **truncate** emissions
    past it — and replays the source up to the crash instant, so state
    and output end byte-identical to a crash-free run.  Batches hold at
    most ``batch_records`` events and end at checkpoint boundaries and
    incident instants, so snapshots and rollbacks align with batch
    seams.

    Returns ``(emissions, checkpoints, overhead, recoveries, registry)``.
    """
    if batch_records < 1:
        raise StreamingError("batch_records must be positive")
    events = sorted(events, key=lambda e: e[0])
    times = [e[0] for e in events]
    tr = obs_trace.get_tracer()
    reg = MetricsRegistry()
    snapshots = _SnapshotLog(reg, lane)
    c_processed = reg.counter("ckpt.events_processed")
    c_replayed = reg.counter("ckpt.events_replayed")
    c_checkpoints = reg.counter("ckpt.checkpoints_taken")
    c_crashes = reg.counter("ckpt.crashes")
    c_truncated = reg.counter("ckpt.emissions_truncated")
    h_recovery = reg.histogram("ckpt.recovery_seconds", lo=1e-3, hi=1e4)
    emissions: List[WindowResult] = []
    recoveries: List[RecoveryStats] = []
    checkpoints = 0
    overhead = 0.0
    snapshots.append(0.0, snapshot(), 0, 0)

    def incident(at: float, kind: str) -> None:
        if kind == "corrupt":
            snapshots.corrupt(at)
            return
        # roll state AND output back to the latest *verifiable* snapshot
        # at or before the crash, then replay the source from its offset
        ck_t, state, offset, emitted = snapshots.pick(at)
        restore(state)
        c_truncated.inc(len(emissions) - emitted)
        del emissions[emitted:]
        stop = bisect_right(times, at)
        for lo in range(offset, stop, batch_records):
            emissions.extend(feed(events[lo:min(lo + batch_records, stop)]))
        replayed = stop - offset
        replay_time = (at - ck_t) / REPLAY_SPEEDUP
        rec_seconds = RECOVERY_FIXED_COST + replay_time
        recoveries.append(RecoveryStats(at, ck_t, replayed, rec_seconds))
        c_crashes.inc()
        c_replayed.inc(replayed)
        h_recovery.observe(rec_seconds)
        if tr is not None:
            tr.instant("recovery", at, lane=lane, cat="recovery",
                       rolled_back_to=ck_t, replayed=replayed,
                       seconds=rec_seconds)

    incidents = _merge_incidents(crash_times, corrupt_times)
    k = 0
    next_ckpt = config.interval
    i = 0
    while i < len(events):
        t = times[i]
        # incident (crash or corruption) strictly before this event?
        if k < len(incidents) and incidents[k][0] < t:
            incident(*incidents[k])
            k += 1
            continue
        # checkpoint boundaries at or before this event
        while next_ckpt <= t:
            snapshots.append(next_ckpt, snapshot(), i, len(emissions))
            checkpoints += 1
            c_checkpoints.inc()
            overhead += CHECKPOINT_COST
            if tr is not None:
                tr.instant("checkpoint", next_ckpt, lane=lane,
                           cat="checkpoint", offset=i,
                           emitted=len(emissions))
            next_ckpt += config.interval
        hi = min(i + batch_records, bisect_left(times, next_ckpt, i),
                 bisect_right(times, incidents[k][0], i)
                 if k < len(incidents) else len(events))
        emissions.extend(feed(events[i:hi]))
        c_processed.inc(hi - i)
        i = hi
    # incidents at or after the last event's timestamp: crashes still
    # roll back and replay the tail, and their cost is accounted
    for at, kind in incidents[k:]:
        incident(at, kind)
    snapshots.audit_latent()
    return emissions, checkpoints, overhead, recoveries, reg


@dataclass
class StatefulRun:
    """Result of a stateful streaming run."""

    state: Dict[Hashable, object]
    processed_events: int
    checkpoints_taken: int
    checkpoint_overhead: float
    recoveries: List[RecoveryStats] = field(default_factory=list)
    #: per-run typed counters (conservation-checkable against the inputs)
    registry: Optional[MetricsRegistry] = None

    @property
    def total_recovery_time(self) -> float:
        """Seconds spent recovering across all crashes."""
        return sum(r.recovery_seconds for r in self.recoveries)


def run_stateful_stream(
    events: Sequence[Tuple[float, Hashable, object]],
    agg: Callable[[object, object], object],
    init: Callable[[object], object],
    config: CheckpointConfig,
    crash_times: Sequence[float] = (),
    corrupt_times: Sequence[float] = (),
) -> StatefulRun:
    """Process timestamped ``(t, key, value)`` events with checkpointed state.

    ``crash_times`` lists event-time instants at which the operator dies;
    each crash rolls state back to the latest checkpoint at or before the
    crash and replays the events in between (at ``REPLAY_SPEEDUP``).
    ``corrupt_times`` silently rot the newest intact snapshot; recovery
    verifies and falls back past them.  The final state is exactly the
    state of a fault-free run.
    """
    state: Dict[Hashable, object] = {}

    def feed(batch: Sequence[Tuple[float, Hashable, object]]) -> list:
        for _t, key, value in batch:
            state[key] = agg(state[key], value) if key in state \
                else init(value)
        return []

    def restore(snap: Dict[Hashable, object]) -> None:
        state.clear()
        state.update(snap)

    # the dict operator emits nothing and has no batch seams of its own
    _e, checkpoints, overhead, recoveries, reg = _run_checkpointed(
        events, feed, lambda: state, restore, config, crash_times,
        corrupt_times, len(events) or 1, ("stream", "stateful"))
    return StatefulRun(state, len(events), checkpoints, overhead,
                       recoveries, registry=reg)


@dataclass
class WindowedRun:
    """Result of a checkpointed *windowed* streaming run."""

    emissions: List[WindowResult]
    processed_events: int
    checkpoints_taken: int
    checkpoint_overhead: float
    recoveries: List[RecoveryStats] = field(default_factory=list)
    late_dropped: int = 0
    #: accepted / late-dropped (record, window) pairs per window key
    window_in: Dict[Tuple[Hashable, float], int] = field(default_factory=dict)
    window_late: Dict[Tuple[Hashable, float], int] = field(
        default_factory=dict)
    registry: Optional[MetricsRegistry] = None

    @property
    def total_recovery_time(self) -> float:
        return sum(r.recovery_seconds for r in self.recoveries)


def run_windowed_stream(
    events: Sequence[Tuple[float, float, Hashable, Any]],
    window: WindowSpec,
    agg: WindowAgg,
    config: CheckpointConfig,
    crash_times: Sequence[float] = (),
    corrupt_times: Sequence[float] = (),
    watermark_delay: float = 0.0,
    allowed_lateness: float = 0.0,
    batch_records: int = 256,
    vectorized: bool = True,
) -> WindowedRun:
    """Windowed aggregation with checkpoints and a transactional output log.

    ``events`` are ``(arrival, event_time, key, value)`` in arrival
    order; they are consumed in micro-batches through a
    :class:`VectorizedWindowAggregator`.  Checkpoints snapshot the
    aggregator *and* the emission-log length; a crash rolls both back —
    emissions past the checkpoint are **truncated** and re-emitted
    during replay, so the final output is byte-identical to a crash-free
    run (exactly-once across windows, not just state).  Per-window
    accounting (``window_in`` / ``window_late``) snapshots and replays
    with the state, so ``assigned == window_in + window_late`` holds per
    window regardless of the crash plan.  Any batch partitioning yields
    identical emissions (the aggregator's batch path is byte-equivalent
    to per-record feeding).
    """
    aggr = VectorizedWindowAggregator(
        window, agg, watermark_delay=watermark_delay,
        allowed_lateness=allowed_lateness, vectorized=vectorized)

    def feed(batch: Sequence[Tuple[float, float, Hashable, Any]]) \
            -> List[WindowResult]:
        return aggr.add_batch(EventBatch.from_records(
            [(e[1], e[2], e[3]) for e in batch]))

    emissions, checkpoints, overhead, recoveries, reg = _run_checkpointed(
        events, feed, aggr.snapshot, aggr.restore, config, crash_times,
        corrupt_times, batch_records, ("stream", "windowed"))
    emissions.extend(aggr.flush())
    return WindowedRun(emissions, len(events), checkpoints, overhead,
                       recoveries, late_dropped=aggr.dropped,
                       window_in=dict(aggr.window_in),
                       window_late=dict(aggr.window_late),
                       registry=reg)
