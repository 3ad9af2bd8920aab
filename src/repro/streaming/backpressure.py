"""Credit-based backpressure pipeline for event-time streaming.

A four-stage DES pipeline — source → batcher → window operator → sink —
where every hop is a :class:`CreditLink`: a bounded item queue plus a
credit pool.  Sending consumes a credit; the *receiver* returns it only
after it has fully processed (and forwarded) the item.  When a stage
falls behind, its inbound link runs out of credits and the pressure
propagates hop by hop back to the source, which *throttles* (new
arrivals wait in the source buffer) instead of shedding at the door.

The three operating points the sustained-throughput harness compares:

* ``backpressure=False`` — unbounded links; overload grows the operator
  queue without bound and in-pipeline latency diverges;
* ``backpressure=True`` — in-flight work is capped at the credit bound,
  in-pipeline latency stays bounded, and overload surfaces as source
  backlog (end-to-end latency), which the rate search detects;
* ``backpressure=True`` + token-bucket ``admission`` — the source sheds
  hard overload with exact accounting, so both latencies stay bounded.

Record conservation holds at every instant and per fired window:
``pipe.records_in == records_out + records_inflight + records_shed``,
and for every window ``assigned == window_in + window_late`` (checked by
the chaos oracle).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Tuple

import numpy as np

from ..common.errors import StreamingError
from ..common.stats import Summary
from ..obs.metrics import MetricsRegistry
from ..resilience import AdmissionConfig, AdmissionController
from ..simcore.kernel import Simulator
from ..simcore.resources import Container, Store
from .events import EventBatch, VectorizedWindowAggregator, WindowAgg, WindowSpec
from .windows import WindowResult

__all__ = ["CreditLink", "PipelineConfig", "PipelineResult",
           "run_event_pipeline"]

_SENTINEL = object()


class CreditLink:
    """A bounded channel: FIFO items gated by a returnable credit pool.

    ``credits=None`` disables flow control (unbounded link) — the
    backpressure-off baseline.  :meth:`send` blocks while no credit is
    free and records the blocked time; :meth:`ack` returns one credit
    once the receiver is done with an item.
    """

    def __init__(self, sim: Simulator, credits: Optional[int],
                 reg: MetricsRegistry, name: str) -> None:
        if credits is not None and credits < 1:
            raise StreamingError("credit bound must be >= 1")
        self.sim = sim
        self.name = name
        self._items = Store(sim)
        self._credits = (Container(sim, capacity=credits, init=credits)
                         if credits is not None else None)
        self.sends = reg.counter(f"pipe.{name}.sends")
        self.blocked_seconds = reg.counter(f"pipe.{name}.blocked_seconds")
        self.inflight = reg.gauge(f"pipe.{name}.inflight")

    def available(self) -> int:
        """Items ready to receive without blocking."""
        return len(self._items)

    def send(self, item):
        """(generator) Acquire a credit, then enqueue ``item``."""
        if self._credits is not None:
            t0 = self.sim.now
            yield self._credits.get(1.0)
            waited = self.sim.now - t0
            if waited > 0:
                self.blocked_seconds.inc(waited)
        self.sends.inc()
        self.inflight.inc()
        yield self._items.put(item)

    def recv(self):
        """(generator) Dequeue the oldest item (blocks while empty)."""
        item = yield self._items.get()
        return item

    def ack(self) -> None:
        """Return one credit — the receiver finished an item."""
        self.inflight.dec()
        if self._credits is not None:
            self._credits.put(1.0)


SOURCE_INTERVAL = 0.1    # source ingest tick (s)
CHUNK_RECORDS = 512      # max records per source chunk


@dataclass(frozen=True)
class PipelineConfig:
    """Knobs for the credit-based event pipeline."""

    batch_interval: float = 0.5        # batcher assembly tick
    per_record_cost: float = 2e-4      # operator seconds per record (serial)
    parallelism: int = 2               # operator work divides this many ways
    scheduling_overhead: float = 0.02  # fixed operator seconds per batch
    backpressure: bool = True
    # per-link credit bound for the batch-level links (batcher → operator
    # → sink): small, so the bounded interior stays a few batches deep.
    # The record-chunk ingress link is sized separately (see
    # run_event_pipeline): its window must cover one batch interval of
    # capacity intake or the credit window itself — not compute — caps
    # throughput and the sustainable-rate knee measures the wrong thing.
    credits: int = 4
    window: WindowSpec = field(
        default_factory=lambda: WindowSpec.tumbling(1.0))
    watermark_delay: float = 0.5
    allowed_lateness: float = 0.5
    agg: str = "sum"
    admission: Optional[AdmissionConfig] = None
    vectorized: bool = True

    def __post_init__(self) -> None:
        if self.batch_interval <= 0 or self.parallelism < 1:
            raise StreamingError("bad batch_interval or parallelism")
        if self.per_record_cost <= 0 or self.scheduling_overhead < 0:
            raise StreamingError(
                "need per_record_cost > 0 and scheduling_overhead >= 0")
        if self.window.kind == "session":
            raise StreamingError(
                "the watermark operator needs tumbling or sliding windows")

    def batch_time(self, n_records: int) -> float:
        return self.scheduling_overhead + \
            self.per_record_cost * n_records / self.parallelism


@dataclass
class PipelineResult:
    """Outcome of one pipeline run."""

    e2e_latency: Summary        # record arrival → sink
    pipeline_latency: Summary   # pipeline entry → sink (inside the credits)
    processed_records: int
    shed_records: int
    records_in: int
    windows_fired: int
    corrections: int
    late_dropped_records: int   # whole records beyond allowed lateness
    late_dropped_pairs: int     # (record, window) pairs beyond lateness
    emissions: List[WindowResult]
    window_in: Dict[Tuple[Hashable, float], int]
    window_late: Dict[Tuple[Hashable, float], int]
    max_source_backlog: int     # records waiting to enter the pipeline
    throttled_seconds: float    # total time stages spent credit-blocked
    duration: float
    registry: Optional[MetricsRegistry] = None

    @property
    def throughput(self) -> float:
        return self.processed_records / self.duration if self.duration else 0.0

    @property
    def conserved(self) -> bool:
        """in == out + inflight + shed (inflight is 0 after drain)."""
        if self.registry is None:
            return True
        r = self.registry
        return (r.value("pipe.records_in")
                == r.value("pipe.records_out")
                + r.value("pipe.records_inflight")
                + r.value("pipe.records_shed"))


def run_event_pipeline(events, config: PipelineConfig) -> PipelineResult:
    """Run arrivals through source → batcher → window operator → sink.

    ``events`` is ``(arrival, ts, keys, values)`` — numpy columns sorted
    by arrival time (:func:`repro.workloads.generators.event_stream`
    produces them).  ``arrival`` is wall-clock receipt, ``ts`` event
    time (possibly out of order).  Runs until every admitted record has
    drained through the sink and the final windows have flushed.
    """
    arrival, ts, keys, values = events
    arrival = np.asarray(arrival, dtype=np.float64)
    n_total = len(arrival)
    if not (n_total == len(ts) == len(keys) == len(values)):
        raise StreamingError("event columns must have equal length")
    sim = Simulator()
    reg = MetricsRegistry()
    records_in = reg.counter("pipe.records_in")
    records_out = reg.counter("pipe.records_out")
    records_shed = reg.counter("pipe.records_shed")
    inflight = reg.gauge("pipe.records_inflight")
    source_backlog = reg.gauge("pipe.source_backlog")
    max_backlog = reg.gauge("pipe.max_source_backlog")
    windows_fired = reg.counter("pipe.windows_fired")
    corrections = reg.counter("pipe.late_corrections")
    batches = reg.counter("pipe.batches")

    credits = config.credits if config.backpressure else None
    if credits is not None:
        # ingress carries record chunks, not batches: its window must
        # cover one batch interval of capacity intake (plus slack) or
        # the credit window caps throughput below compute capacity
        capacity = config.parallelism / config.per_record_cost
        per_interval = capacity * config.batch_interval / CHUNK_RECORDS
        in_credits: Optional[int] = max(credits, int(math.ceil(per_interval)) + 2)
    else:
        in_credits = None
    ingress = CreditLink(sim, in_credits, reg, "ingress")  # source → batcher
    to_op = CreditLink(sim, credits, reg, "operator")     # batcher → operator
    egress = CreditLink(sim, credits, reg, "egress")      # operator → sink

    ctrl = (AdmissionController(config.admission)
            if config.admission is not None else None)
    aggregator = VectorizedWindowAggregator(
        config.window, WindowAgg.by_name(config.agg),
        watermark_delay=config.watermark_delay,
        allowed_lateness=config.allowed_lateness,
        vectorized=config.vectorized)

    e2e = Summary()
    pipe_lat = Summary()
    emissions: List[WindowResult] = []
    buffer: Store = Store(sim)          # admitted chunks awaiting entry

    def source(sim: Simulator):
        # tick, admit newly arrived records, chunk them into the buffer;
        # the feeder below pushes chunks through the credit link so a
        # blocked pipeline shows up as buffer (source-side) backlog
        i = 0
        while i < n_total:
            t0 = sim.now
            yield sim.timeout(SOURCE_INTERVAL)
            j = int(np.searchsorted(arrival, sim.now, side="right"))
            if j == i:
                continue
            n = j - i
            records_in.inc(n)
            lo = i
            i = j
            if ctrl is not None:
                # backlog is denominated in queued chunks, matching the
                # admission config's batch-based max_backlog bound
                admitted, shed, _delay = ctrl.admit(sim.now, n, len(buffer))
                if shed:
                    records_shed.inc(shed)
                # shed the newest records: the bucket admits in arrival
                # order, so the tail of the tick's slice is dropped
                j = lo + admitted
            inflight.inc(j - lo)
            for k in range(lo, j, CHUNK_RECORDS):
                hi = min(k + CHUNK_RECORDS, j)
                chunk = EventBatch(ts[k:hi], keys[k:hi], values[k:hi])
                mean_arr = float(arrival[k:hi].mean())
                source_backlog.inc(hi - k)
                if source_backlog.value > max_backlog.value:
                    max_backlog.set(source_backlog.value)
                yield buffer.put((chunk, hi - k, mean_arr))
        yield buffer.put(_SENTINEL)

    def feeder(sim: Simulator):
        while True:
            item = yield buffer.get()
            if item is _SENTINEL:
                yield from ingress.send(_SENTINEL)
                return
            chunk, n, mean_arr = item
            yield from ingress.send((chunk, n, mean_arr, sim.now))
            source_backlog.dec(n)

    def batcher(sim: Simulator):
        pending: List[tuple] = []
        done = False
        while not done:
            yield sim.timeout(config.batch_interval)
            while ingress.available():
                item = yield from ingress.recv()
                if item is _SENTINEL:
                    done = True
                    break
                pending.append(item)
            if pending:
                eb = EventBatch.concat([p[0] for p in pending])
                parts = [(p[1], p[2], p[3]) for p in pending]
                yield from to_op.send((eb, parts))
                # credits return only now: unsent chunks keep their
                # ingress credit, so a slow operator backs pressure up
                for _ in pending:
                    ingress.ack()
                pending.clear()
        yield from to_op.send(_SENTINEL)

    def operator(sim: Simulator):
        while True:
            item = yield from to_op.recv()
            if item is _SENTINEL:
                tail = aggregator.flush()
                yield from egress.send((None, [], tail))
                yield from egress.send(_SENTINEL)
                return
            eb, parts = item
            yield sim.timeout(config.batch_time(eb.n))
            fired = aggregator.add_batch(eb)
            batches.inc()
            to_op.ack()
            yield from egress.send((eb.n, parts, fired))

    def sink(sim: Simulator):
        while True:
            item = yield from egress.recv()
            if item is _SENTINEL:
                return
            n, parts, fired = item
            for res in fired:
                emissions.append(res)
                if res.correction:
                    corrections.inc()
                else:
                    windows_fired.inc()
            for part_n, mean_arr, sent_at in parts:
                e2e.add(sim.now - mean_arr, weight=part_n)
                pipe_lat.add(sim.now - sent_at, weight=part_n)
            if n:
                records_out.inc(n)
                inflight.dec(n)
            egress.ack()

    sim.process(source(sim), name="pipe-source")
    sim.process(feeder(sim), name="pipe-feeder")
    sim.process(batcher(sim), name="pipe-batcher")
    sim.process(operator(sim), name="pipe-operator")
    sink_proc = sim.process(sink(sim), name="pipe-sink")
    sim.run_until_done(sink_proc)

    throttled = sum(reg.value(f"pipe.{l}.blocked_seconds")
                    for l in ("ingress", "operator", "egress"))
    return PipelineResult(
        e2e_latency=e2e, pipeline_latency=pipe_lat,
        processed_records=int(records_out.value),
        shed_records=int(records_shed.value),
        records_in=int(records_in.value),
        windows_fired=int(windows_fired.value),
        corrections=int(corrections.value),
        late_dropped_records=aggregator.dropped,
        late_dropped_pairs=sum(aggregator.window_late.values()),
        emissions=emissions,
        window_in=dict(aggregator.window_in),
        window_late=dict(aggregator.window_late),
        max_source_backlog=int(max_backlog.value),
        throttled_seconds=float(throttled),
        duration=sim.now,
        registry=reg)
