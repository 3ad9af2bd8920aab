"""Credit-based backpressure: bounded interiors, lossless conservation.

The pipeline has three operating points under overload, and the tests
pin each one: backpressure *off* lets the interior queue grow with the
run (divergent in-pipeline latency), *on* bounds the interior to the
credit window and pushes the pressure back to the source (end-to-end
grows instead, nothing is lost), and *on + admission* sheds the excess
at the front door with exact accounting (everything bounded).
"""

import pickle

import numpy as np
import pytest

from repro.common.errors import StreamingError
from repro.resilience import AdmissionConfig
from repro.simcore import Simulator
from repro.obs.metrics import MetricsRegistry
from repro.streaming import (
    CreditLink,
    PipelineConfig,
    WindowSpec,
    run_event_pipeline,
)
from repro.workloads import event_stream

CAPACITY = 10_000.0   # parallelism / per_record_cost at the defaults


def _events(rate, duration=8.0, scenario="uniform", seed=42):
    return event_stream(scenario, rate, duration,
                        seed=np.random.default_rng(seed))


class TestCreditLink:
    def test_sender_blocks_without_credit(self):
        sim = Simulator()
        reg = MetricsRegistry()
        link = CreditLink(sim, 2, reg, "test")
        got = []

        def producer(sim):
            for i in range(5):
                yield from link.send(i)

        def consumer(sim):
            while len(got) < 5:
                item = yield from link.recv()
                yield sim.timeout(1.0)      # slow: forces sender to wait
                got.append(item)
                link.ack()

        sim.process(producer(sim), name="producer")
        done = sim.process(consumer(sim), name="consumer")
        sim.run_until_done(done)
        assert got == list(range(5))
        # 2 credits cover the first sends; the rest waited on acks
        assert reg.value("pipe.test.blocked_seconds") > 0
        assert reg.value("pipe.test.sends") == 5

    def test_unbounded_when_credits_none(self):
        sim = Simulator()
        reg = MetricsRegistry()
        link = CreditLink(sim, None, reg, "free")

        def producer(sim):
            for i in range(50):
                yield from link.send(i)

        p = sim.process(producer(sim), name="producer")
        sim.run_until_done(p)
        assert reg.value("pipe.free.blocked_seconds") == 0
        assert link.available() == 50

    def test_invalid_credits(self):
        sim = Simulator()
        with pytest.raises(StreamingError):
            CreditLink(sim, 0, MetricsRegistry(), "bad")


class TestPipelineConservation:
    @pytest.mark.parametrize("scenario", ["uniform", "bursty", "skewed"])
    def test_conserved_at_moderate_load(self, scenario):
        r = run_event_pipeline(_events(0.5 * CAPACITY, scenario=scenario),
                               PipelineConfig())
        assert r.conserved
        assert r.records_in == r.processed_records
        assert r.windows_fired > 0

    @pytest.mark.parametrize("backpressure", [False, True])
    def test_conserved_under_overload(self, backpressure):
        r = run_event_pipeline(
            _events(1.5 * CAPACITY),
            PipelineConfig(backpressure=backpressure))
        assert r.conserved
        assert r.shed_records == 0          # no admission: nothing dropped
        assert r.records_in == r.processed_records

    def test_conserved_with_admission(self):
        cfg = PipelineConfig(admission=AdmissionConfig(
            rate=0.8 * CAPACITY, burst=0.8 * CAPACITY, max_backlog=8))
        r = run_event_pipeline(_events(1.5 * CAPACITY), cfg)
        assert r.conserved
        assert r.shed_records > 0
        assert r.records_in == r.processed_records + r.shed_records


class TestOperatingPoints:
    def test_backpressure_bounds_the_interior(self):
        # long enough that the unbounded operator queue visibly outgrows
        # the credit window (the gap widens with duration)
        off = run_event_pipeline(_events(1.5 * CAPACITY, duration=20.0),
                                 PipelineConfig(backpressure=False))
        on = run_event_pipeline(_events(1.5 * CAPACITY, duration=20.0),
                                PipelineConfig(backpressure=True))
        # off: the batcher drains everything into the operator queue, so
        # in-pipeline latency grows with the backlog; on: the credit
        # window caps it
        assert on.pipeline_latency.p99 * 2 <= off.pipeline_latency.p99
        # the pressure lands on the source instead: blocked time is real
        assert on.throttled_seconds > 0
        assert off.throttled_seconds == 0
        assert on.max_source_backlog > 0

    def test_admission_bounds_end_to_end(self):
        overload = 1.5 * CAPACITY
        on = run_event_pipeline(_events(overload),
                                PipelineConfig(backpressure=True))
        shed = run_event_pipeline(
            _events(overload),
            PipelineConfig(backpressure=True, admission=AdmissionConfig(
                rate=0.8 * CAPACITY, burst=0.8 * CAPACITY, max_backlog=8)))
        assert shed.e2e_latency.p99 * 2 <= on.e2e_latency.p99
        assert shed.shed_records > 0

    def test_stable_load_not_throttled(self):
        r = run_event_pipeline(_events(0.3 * CAPACITY),
                               PipelineConfig(backpressure=True))
        assert r.e2e_latency.p99 < 2.0
        assert r.max_source_backlog < 2_000


class TestDeterminismAndWindows:
    def test_deterministic(self):
        ev = _events(0.8 * CAPACITY, scenario="bursty")
        a = run_event_pipeline(ev, PipelineConfig())
        b = run_event_pipeline(ev, PipelineConfig())
        assert pickle.dumps(a.emissions, 4) == pickle.dumps(b.emissions, 4)
        assert (a.processed_records, a.windows_fired, a.corrections,
                a.late_dropped_records, a.max_source_backlog) == \
            (b.processed_records, b.windows_fired, b.corrections,
             b.late_dropped_records, b.max_source_backlog)

    def test_scalar_vectorized_identical_end_to_end(self):
        ev = _events(0.3 * CAPACITY, duration=5.0)
        fast = run_event_pipeline(ev, PipelineConfig(vectorized=True))
        slow = run_event_pipeline(ev, PipelineConfig(vectorized=False))
        assert pickle.dumps(fast.emissions, 4) == \
            pickle.dumps(slow.emissions, 4)

    def test_window_accounting_balances(self):
        r = run_event_pipeline(
            _events(0.3 * CAPACITY, duration=5.0),
            PipelineConfig(watermark_delay=0.2, allowed_lateness=0.0))
        pairs_in = sum(r.window_in.values())
        pairs_late = sum(r.window_late.values())
        assert pairs_in + pairs_late == r.processed_records  # tumbling: 1 pair/rec
        assert r.late_dropped_pairs == pairs_late

    def test_sliding_windows_run(self):
        r = run_event_pipeline(
            _events(0.2 * CAPACITY, duration=4.0),
            PipelineConfig(window=WindowSpec.sliding(2.0, 1.0)))
        assert r.conserved and r.windows_fired > 0

    def test_session_windows_rejected(self):
        with pytest.raises(StreamingError):
            PipelineConfig(window=WindowSpec.session(1.0))


class TestConfigCosts:
    """Bad costs fail when the config is built, not mid-run."""

    def test_zero_per_record_cost_rejected(self):
        # the ingress credit window is sized from parallelism / cost
        with pytest.raises(StreamingError):
            PipelineConfig(per_record_cost=0.0)

    def test_negative_per_record_cost_rejected(self):
        with pytest.raises(StreamingError):
            PipelineConfig(per_record_cost=-2e-4)

    def test_negative_scheduling_overhead_rejected(self):
        with pytest.raises(StreamingError):
            PipelineConfig(scheduling_overhead=-0.02)
