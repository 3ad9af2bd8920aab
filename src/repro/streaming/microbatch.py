"""Micro-batch streaming engine on the DES kernel (experiment T7).

The Spark-Streaming execution model: records accumulate for
``batch_interval`` seconds, then the batch is processed as a (parallel)
job.  If processing keeps up, end-to-end latency ≈ interval/2 + processing
time; when per-batch processing time exceeds the interval the system is
unstable and backlog (and latency) grow without bound — the knee T7
sweeps for.  Optional token-bucket admission control
(:class:`~repro.resilience.AdmissionConfig`) sheds or delays offered
records at the source, trading throughput for bounded latency; without
it the source admits every record.

Counters are kept in a per-run :class:`~repro.obs.metrics.MetricsRegistry`
(attached to the result).  ``stream.records_in`` counts every offered
record, so once the run drains record conservation is exact:
``stream.records_in == stream.records_out + stream.records_inflight +
stream.records_shed``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional

import numpy as np

from ..common.errors import StreamingError
from ..common.stats import Summary
from ..obs import trace as obs_trace
from ..obs.metrics import MetricsRegistry
from ..resilience import AdmissionConfig, AdmissionController
from ..simcore.kernel import Simulator
from ..simcore.resources import Store
from .events import EventBatch, VectorizedWindowAggregator, WindowAgg, WindowSpec

__all__ = ["MicroBatchConfig", "StreamingResult", "run_microbatch"]


@dataclass(frozen=True)
class MicroBatchConfig:
    """Engine knobs."""

    batch_interval: float = 1.0
    per_record_cost: float = 1e-4     # processing seconds per record (serial)
    parallelism: int = 4              # batch work divides over this many ways
    scheduling_overhead: float = 0.05  # fixed seconds per batch job
    admission: Optional[AdmissionConfig] = None
    # token-bucket admission control: makes overload produce a *stable*
    # degraded result with exact shed accounting (for lossless overload
    # handling use the credit-based pipeline in streaming.backpressure)
    window: Optional[WindowSpec] = None
    # event-time path: when set, each batch carries an EventBatch and the
    # processor runs watermark-driven windowed aggregation; late drops
    # surface in `stream.records_late_dropped` and conservation extends to
    # records_out == records_windowed + records_late_dropped
    watermark_delay: float = 0.0
    allowed_lateness: float = 0.0
    window_agg: str = "sum"
    n_keys: int = 16                  # synthesized event keyspace

    def __post_init__(self) -> None:
        if self.batch_interval <= 0 or self.parallelism < 1:
            raise StreamingError("bad batch interval or parallelism")
        if self.window is not None and self.window.kind == "session":
            raise StreamingError(
                "the micro-batch event-time path needs tumbling or "
                "sliding windows (sessions aggregate offline)")
        if self.n_keys < 1:
            raise StreamingError("n_keys must be positive")

    def batch_time(self, n_records: int) -> float:
        """Modeled processing time of one batch."""
        return self.scheduling_overhead + \
            self.per_record_cost * n_records / self.parallelism


@dataclass
class StreamingResult:
    """Aggregates from one streaming run."""

    latency: Summary
    processed_records: int
    duration: float
    max_backlog: int
    batch_times: List[float] = field(default_factory=list)
    #: records refused by token-bucket admission control (0 without it)
    shed_records: int = 0
    #: per-run typed counters/gauges (record-conservation checkable)
    registry: Optional[MetricsRegistry] = None
    #: event-time path results (0 unless config.window is set)
    windows_fired: int = 0
    late_corrections: int = 0
    #: processed records whose every window was beyond allowed lateness
    late_dropped_records: int = 0

    @property
    def throughput(self) -> float:
        """Processed records per second."""
        return self.processed_records / self.duration if self.duration else 0.0

    @property
    def stable(self) -> bool:
        """Heuristic: latency didn't blow past 10x the mean batch time."""
        if not self.batch_times:
            return True
        mean_bt = sum(self.batch_times) / len(self.batch_times)
        return self.latency.p95 <= 10 * max(mean_bt, 1e-9) + 10.0


def run_microbatch(rate_fn: Callable[[float], float],
                   config: MicroBatchConfig,
                   duration: float,
                   sim: Optional[Simulator] = None,
                   events_fn: Optional[Callable[[float, int], EventBatch]]
                   = None) -> StreamingResult:
    """Run the micro-batch engine for ``duration`` simulated seconds.

    ``rate_fn(t)`` is the offered record rate at time ``t``; records within
    an interval are treated as arriving uniformly (mean wait = interval/2).
    Latency per batch = (completion time − mean arrival time), weighted by
    batch size, so the summary describes *record* latency, not batch
    latency — a 1-record batch no longer counts as much as a 10 000-record
    one.

    With ``config.window`` set, batches carry real event columns and the
    processor performs watermark-driven windowed aggregation.
    ``events_fn(t0, n)`` supplies the :class:`EventBatch` for the ``n``
    admitted records of the interval starting at ``t0`` (defaults to
    evenly spaced in-interval timestamps over a round-robin keyspace);
    records whose windows are all beyond the allowed lateness are counted
    in ``stream.records_late_dropped``, and the event-time conservation
    ``records_out == records_windowed + records_late_dropped`` holds.
    """
    own_sim = sim is None
    if own_sim:
        sim = Simulator()
    latency = Summary()
    batch_times: List[float] = []
    queue: Store = Store(sim)
    reg = MetricsRegistry()
    records_in = reg.counter("stream.records_in")
    records_out = reg.counter("stream.records_out")
    records_shed = reg.counter("stream.records_shed")
    ctrl = (AdmissionController(config.admission)
            if config.admission is not None else None)
    inflight = reg.gauge("stream.records_inflight")
    backlog = reg.gauge("stream.backlog_batches")
    max_backlog = reg.gauge("stream.max_backlog")
    batches = reg.counter("stream.batches")
    batch_seconds = reg.histogram("stream.batch_seconds", lo=1e-3, hi=1e4)
    windows_fired = reg.counter("stream.windows_fired")
    late_corrections = reg.counter("stream.late_corrections")
    late_dropped = reg.counter("stream.records_late_dropped")
    records_windowed = reg.counter("stream.records_windowed")

    aggregator: Optional[VectorizedWindowAggregator] = None
    if config.window is not None:
        aggregator = VectorizedWindowAggregator(
            config.window, WindowAgg.by_name(config.window_agg),
            watermark_delay=config.watermark_delay,
            allowed_lateness=config.allowed_lateness)
    next_record_idx = 0

    def default_events(t0: float, n: int) -> EventBatch:
        # evenly spaced event times across the interval, round-robin keys
        # over the configured keyspace, unit values (so "sum" counts)
        idx = np.arange(n, dtype=np.int64)
        ts = t0 + (idx + 0.5) * (config.batch_interval / n)
        keys = (next_record_idx + idx) % config.n_keys
        values = np.ones(n, dtype=np.int64)
        return EventBatch(ts, keys, values)

    make_events = events_fn if events_fn is not None else default_events

    def source(sim: Simulator):
        nonlocal next_record_idx
        tr = obs_trace.get_tracer()

        def payload(t0: float, n: int):
            nonlocal next_record_idx
            if aggregator is None:
                return None
            eb = make_events(t0, n)
            next_record_idx += n
            return eb

        def admit(n: int):
            # token-bucket admission of the interval's n offered records;
            # returns how many were admitted, the rest are shed
            admitted_total, remaining = 0, n
            while remaining > 0:
                admitted, shed, delay = ctrl.admit(
                    sim.now, remaining, int(backlog.value))
                admitted_total += admitted
                remaining -= admitted + shed
                if shed:
                    records_shed.inc(shed)
                    if tr is not None:
                        tr.instant("admission_shed", sim.now,
                                   lane=("stream", "source"),
                                   cat="resilience", offered=n, shed=shed)
                if delay > 0:
                    yield sim.timeout(delay)   # delay-mode SLO: wait
                else:
                    break
            return admitted_total

        while sim.now < duration:
            t0 = sim.now
            yield sim.timeout(config.batch_interval)
            n = rate_fn(t0) * config.batch_interval
            n = int(max(0, round(n)))
            if n == 0:
                # nothing arrived: an empty batch would still pay
                # scheduling_overhead and inflate the backlog counters
                # without processing a single record
                continue
            mean_arrival = t0 + config.batch_interval / 2.0
            # records_in counts every record the source *offered*; shed
            # records are accounted so conservation holds exactly
            # (in == out + inflight + shed)
            records_in.inc(n)
            admitted = n
            if ctrl is not None:
                admitted = yield from admit(n)
                if admitted == 0:
                    continue   # fully shed: no batch to schedule
            inflight.inc(admitted)
            backlog.inc()
            if backlog.value > max_backlog.value:
                max_backlog.set(backlog.value)
            yield queue.put((admitted, mean_arrival, payload(t0, admitted)))
        yield queue.put(None)   # sentinel

    def processor(sim: Simulator):
        tr = obs_trace.get_tracer()
        while True:
            item = yield queue.get()
            if item is None:
                if aggregator is not None:
                    for res in aggregator.flush():
                        windows_fired.inc()
                return
            n, mean_arrival, eb = item
            span = None
            if tr is not None:
                span = tr.begin("batch", sim.now, lane=("stream", "proc"),
                                cat="batch", n_records=n)
            bt = config.batch_time(n)
            yield sim.timeout(bt)
            if aggregator is not None and eb is not None:
                prev_dropped = aggregator.dropped
                for res in aggregator.add_batch(eb):
                    if res.correction:
                        late_corrections.inc()
                    else:
                        windows_fired.inc()
                d = aggregator.dropped - prev_dropped
                late_dropped.inc(d)
                records_windowed.inc(eb.n - d)
            backlog.dec()
            inflight.dec(n)
            records_out.inc(n)
            batches.inc()
            batch_times.append(bt)
            batch_seconds.observe(bt)
            latency.add(sim.now - mean_arrival, weight=n)
            if tr is not None:
                tr.end(span, sim.now, latency=sim.now - mean_arrival)

    sim.process(source(sim), name="stream-source")
    proc = sim.process(processor(sim), name="stream-proc")
    sim.run_until_done(proc)
    return StreamingResult(latency, int(records_out.value), sim.now,
                           int(max_backlog.value), batch_times,
                           shed_records=int(records_shed.value),
                           registry=reg,
                           windows_fired=int(windows_fired.value),
                           late_corrections=int(late_corrections.value),
                           late_dropped_records=int(late_dropped.value))
