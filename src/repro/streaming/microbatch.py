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

The engine models record counts, not event time: windowed event-time
aggregation runs on the credit pipeline
(:func:`~repro.streaming.backpressure.run_event_pipeline`) or, with
checkpointed state, :func:`~repro.streaming.checkpoint.run_windowed_stream`.

Counters are kept in a per-run :class:`~repro.obs.metrics.MetricsRegistry`
(attached to the result).  ``stream.records_in`` counts every offered
record, so once the run drains record conservation is exact:
``stream.records_in == stream.records_out + stream.records_inflight +
stream.records_shed``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional

from ..common.errors import StreamingError
from ..common.stats import Summary
from ..obs import trace as obs_trace
from ..obs.metrics import MetricsRegistry
from ..resilience import AdmissionConfig, AdmissionController
from ..simcore.kernel import Simulator
from ..simcore.resources import Store

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

    def __post_init__(self) -> None:
        if self.batch_interval <= 0 or self.parallelism < 1:
            raise StreamingError("bad batch interval or parallelism")
        if self.per_record_cost < 0 or self.scheduling_overhead < 0:
            raise StreamingError(
                "need per_record_cost >= 0 and scheduling_overhead >= 0")

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
                   duration: float) -> StreamingResult:
    """Run the micro-batch engine for ``duration`` simulated seconds.

    ``rate_fn(t)`` is the offered record rate at time ``t``; records within
    an interval are treated as arriving uniformly (mean wait = interval/2).
    Latency per batch = (completion time − mean arrival time), weighted by
    batch size, so the summary describes *record* latency, not batch
    latency — a 1-record batch no longer counts as much as a 10 000-record
    one.
    """
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

    def source(sim: Simulator):
        tr = obs_trace.get_tracer()

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
            yield queue.put((admitted, mean_arrival))
        yield queue.put(None)   # sentinel

    def processor(sim: Simulator):
        tr = obs_trace.get_tracer()
        while True:
            item = yield queue.get()
            if item is None:
                return
            n, mean_arrival = item
            span = None
            if tr is not None:
                span = tr.begin("batch", sim.now, lane=("stream", "proc"),
                                cat="batch", n_records=n)
            bt = config.batch_time(n)
            yield sim.timeout(bt)
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
                           registry=reg)
