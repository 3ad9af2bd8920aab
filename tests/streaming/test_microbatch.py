"""Micro-batch engine: stability knee, latency model, admission control."""

import pytest

from repro.common.errors import StreamingError
from repro.resilience import AdmissionConfig
from repro.streaming import MicroBatchConfig, run_microbatch


class TestConfig:
    def test_batch_time_model(self):
        cfg = MicroBatchConfig(per_record_cost=1e-3, parallelism=4,
                               scheduling_overhead=0.1)
        assert cfg.batch_time(4000) == pytest.approx(0.1 + 1.0)

    def test_validation(self):
        with pytest.raises(StreamingError):
            MicroBatchConfig(batch_interval=0)

    def test_negative_per_record_cost_rejected(self):
        with pytest.raises(StreamingError):
            MicroBatchConfig(per_record_cost=-1e-4)

    def test_negative_scheduling_overhead_rejected(self):
        with pytest.raises(StreamingError):
            MicroBatchConfig(scheduling_overhead=-0.05)

    def test_free_records_allowed(self):
        cfg = MicroBatchConfig(per_record_cost=0.0, scheduling_overhead=0.0)
        assert cfg.batch_time(10_000) == 0.0


class TestStableRegime:
    def test_latency_about_half_interval_plus_processing(self):
        cfg = MicroBatchConfig(batch_interval=2.0, per_record_cost=1e-5,
                               parallelism=4, scheduling_overhead=0.05)
        r = run_microbatch(lambda t: 1000, cfg, duration=200)
        # interval/2 + batch time ≈ 1.0 + 0.0525
        assert r.latency.p50 == pytest.approx(1.05, rel=0.1)
        assert r.stable

    def test_throughput_matches_offered(self):
        cfg = MicroBatchConfig(batch_interval=1.0, per_record_cost=1e-5,
                               parallelism=4)
        r = run_microbatch(lambda t: 5000, cfg, duration=100)
        assert r.throughput == pytest.approx(5000, rel=0.1)

    def test_zero_rate(self):
        cfg = MicroBatchConfig()
        r = run_microbatch(lambda t: 0, cfg, duration=20)
        assert r.processed_records == 0


class TestUnstableRegime:
    def test_overload_grows_backlog(self):
        cfg = MicroBatchConfig(batch_interval=1.0, per_record_cost=1e-4,
                               parallelism=4)
        # batch time = 0.05 + 50000*1e-4/4 = 1.3 > 1.0 -> unstable
        r = run_microbatch(lambda t: 50_000, cfg, duration=120)
        assert not r.stable
        assert r.max_backlog > 10
        assert r.latency.p95 > 10.0

    def test_knee_location(self):
        """Stability flips where batch processing time crosses the interval."""
        cfg = MicroBatchConfig(batch_interval=1.0, per_record_cost=1e-4,
                               parallelism=4, scheduling_overhead=0.05)
        critical = (1.0 - 0.05) * 4 / 1e-4   # 38_000 rec/s
        below = run_microbatch(lambda t: critical * 0.8, cfg, 150)
        above = run_microbatch(lambda t: critical * 1.3, cfg, 150)
        assert below.stable and not above.stable


class TestBackpressure:
    """Overload is bounded by token-bucket admission at the source."""

    # capacity is (1 - 0.05) * 4 / 1e-4 = 38k rec/s; admit 30k of it
    ADMISSION = AdmissionConfig(rate=30_000, burst=30_000, max_backlog=2)

    def test_bounds_latency_by_shedding(self):
        over = 50_000
        base = MicroBatchConfig(batch_interval=1.0, per_record_cost=1e-4,
                                parallelism=4)
        adm = MicroBatchConfig(batch_interval=1.0, per_record_cost=1e-4,
                               parallelism=4, admission=self.ADMISSION)
        r_no = run_microbatch(lambda t: over, base, 120)
        r_adm = run_microbatch(lambda t: over, adm, 120)
        assert r_adm.latency.p95 < r_no.latency.p95 / 3
        assert r_adm.shed_records > 0
        assert r_no.shed_records == 0

    def test_no_shedding_when_stable(self):
        cfg = MicroBatchConfig(batch_interval=1.0, per_record_cost=1e-5,
                               parallelism=4, admission=self.ADMISSION)
        r = run_microbatch(lambda t: 1000, cfg, 60)
        assert r.stable
        assert r.shed_records == 0
        assert r.processed_records == 1000 * 60

    def test_time_varying_rate(self):
        cfg = MicroBatchConfig(batch_interval=1.0, per_record_cost=1e-5,
                               parallelism=4)
        r = run_microbatch(lambda t: 1000 if t < 50 else 3000, cfg, 100)
        assert r.processed_records == pytest.approx(
            50 * 1000 + 50 * 3000, rel=0.05)


class TestEmptyBatches:
    """Zero-record intervals must not enqueue batches that pay overhead."""

    def test_idle_source_enqueues_no_batches(self):
        cfg = MicroBatchConfig(scheduling_overhead=0.05)
        r = run_microbatch(lambda t: 0, cfg, duration=30)
        assert r.processed_records == 0
        assert r.max_backlog == 0
        assert r.batch_times == []

    def test_fully_throttled_interval_skips_batch(self):
        # burst builds a backlog, then a trickle (1 rec/s) is fully shed
        # by admission while the 10 s burst batch is still queued: those
        # intervals must not enqueue empty batches that pay
        # scheduling_overhead and inflate the backlog
        cfg = MicroBatchConfig(batch_interval=1.0, per_record_cost=1e-3,
                               parallelism=1,
                               admission=AdmissionConfig(
                                   rate=10_000, burst=10_000, max_backlog=1))
        r = run_microbatch(lambda t: 10_000 if t < 5 else 1, cfg,
                           duration=40)
        assert r.shed_records > 0
        # every interval offered records, yet fully shed ones ran no batch
        assert len(r.batch_times) < 40
        # every scheduled batch carried records: none costs bare overhead
        assert r.batch_times
        assert min(r.batch_times) > cfg.scheduling_overhead
        # latency is batch-size weighted: one observation per record
        assert r.latency.count == r.processed_records

    def test_sentinel_shutdown_still_clean(self):
        # skipping empty batches must not break the sentinel drain path
        cfg = MicroBatchConfig(batch_interval=1.0, per_record_cost=1e-5,
                               parallelism=2)
        r = run_microbatch(lambda t: 100 if int(t) % 2 == 0 else 0, cfg,
                           duration=20)
        assert r.processed_records == 10 * 100
        assert r.max_backlog >= 1


class TestAdmissionControl:
    """Token-bucket admission: stable degraded overload, exact accounting."""

    def _overload(self, mode="shed", duration=30.0):
        adm = AdmissionConfig(rate=800.0, burst=1200.0, max_backlog=4,
                              mode=mode)
        cfg = MicroBatchConfig(batch_interval=1.0, per_record_cost=2e-3,
                               parallelism=2, admission=adm)
        return run_microbatch(lambda t: 3000.0, cfg, duration), adm

    def test_overload_is_stable_with_bounded_backlog(self):
        r, adm = self._overload()
        assert r.stable
        assert r.shed_records > 0
        assert r.max_backlog <= adm.max_backlog
        assert r.processed_records > 0

    def test_exact_conservation_in_out_inflight_shed(self):
        r, _adm = self._overload()
        reg = r.registry
        assert reg.value("stream.records_inflight") == 0
        assert reg.value("stream.records_in") == (
            reg.value("stream.records_out")
            + reg.value("stream.records_shed"))
        assert reg.value("stream.records_shed") == r.shed_records

    def test_delay_mode_conserves_and_sheds_less(self):
        shed_r, _ = self._overload(mode="shed")
        delay_r, _ = self._overload(mode="delay")
        for r in (shed_r, delay_r):
            reg = r.registry
            assert reg.value("stream.records_in") == (
                reg.value("stream.records_out")
                + reg.value("stream.records_shed"))
        # delay mode trades latency for completeness: fewer records shed
        assert delay_r.shed_records < shed_r.shed_records

    def test_determinism(self):
        r1, _ = self._overload()
        r2, _ = self._overload()
        assert (r1.processed_records, r1.shed_records, r1.max_backlog,
                r1.batch_times) == (r2.processed_records, r2.shed_records,
                                    r2.max_backlog, r2.batch_times)

    def test_admission_off_keeps_legacy_conservation(self):
        cfg = MicroBatchConfig(batch_interval=1.0, per_record_cost=1e-5,
                               parallelism=2)
        r = run_microbatch(lambda t: 500, cfg, duration=20)
        assert r.shed_records == 0
        reg = r.registry
        assert reg.value("stream.records_in") == reg.value(
            "stream.records_out")

    def test_underload_sheds_nothing(self):
        adm = AdmissionConfig(rate=2000.0, burst=4000.0, max_backlog=8)
        cfg = MicroBatchConfig(batch_interval=1.0, per_record_cost=1e-5,
                               parallelism=2, admission=adm)
        r = run_microbatch(lambda t: 500, cfg, duration=20)
        assert r.shed_records == 0
        assert r.processed_records == 500 * 20
