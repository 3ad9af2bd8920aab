"""Cost-model sampling and the memoized SizeEstimator."""

import pytest

import repro.dataflow.costmodel as costmodel
from repro.dataflow import CostModel, HashPartitioner, SizeEstimator
from repro.dataflow import shuffleio
from repro.dataflow.context import DataflowContext
from repro.dataflow.plan import ShuffleDependency


class TestSampleIndices:
    @pytest.mark.parametrize("n", [0, 1, 5, 31, 32, 33, 100, 1000])
    def test_exactly_min_n_sample_size(self, n):
        cost = CostModel(sample_size=32)
        idx = list(cost.sample_indices(n))
        assert len(idx) == min(n, 32)
        assert all(0 <= i < n for i in idx)
        assert idx == sorted(set(idx))      # distinct, increasing

    def test_indices_spread_over_input(self):
        cost = CostModel(sample_size=4)
        idx = list(cost.sample_indices(100))
        assert idx == [0, 25, 50, 75]

    def test_estimate_bytes_empty(self):
        assert CostModel().estimate_bytes([]) == 0.0

    def test_per_record_floor(self):
        cost = CostModel(min_record_bytes=64.0)
        assert cost.per_record_bytes([1]) >= 64.0


class _PickleCounter:
    """Counts pickle.dumps calls made by the cost model's sampling."""

    def __init__(self, monkeypatch):
        self.calls = 0
        real = costmodel.pickle.dumps

        def counting(obj, *a, **kw):
            self.calls += 1
            return real(obj, *a, **kw)
        monkeypatch.setattr(costmodel.pickle, "dumps", counting)


class TestSizeEstimator:
    def test_samples_once_per_key(self, monkeypatch):
        counter = _PickleCounter(monkeypatch)
        cost = CostModel(sample_size=8)
        est = SizeEstimator(cost)
        records = [(i, "x" * 20) for i in range(100)]
        first = est.estimate("k", records)
        n_after_first = counter.calls
        assert n_after_first == 8
        second = est.estimate("k", records)
        assert counter.calls == n_after_first   # memoized: no new pickles
        assert first == second > 0

    def test_estimate_scales_with_count(self):
        est = SizeEstimator(CostModel())
        records = [(i, i) for i in range(50)]
        full = est.estimate("k", records)
        half = est.estimate_count("k", 25, records)
        assert half == pytest.approx(full / 2)

    def test_empty_first_sample_not_cached(self):
        est = SizeEstimator(CostModel())
        assert est.estimate("k", []) == 0.0
        # a later non-empty output must still be able to set the profile
        records = [("abc", "payload" * 10)] * 10
        assert est.estimate("k", records) == \
            pytest.approx(CostModel().estimate_bytes(records))

    def test_invalidate_resamples(self, monkeypatch):
        counter = _PickleCounter(monkeypatch)
        cost = CostModel(sample_size=4)
        est = SizeEstimator(cost)
        est.estimate("k", [(1, 2)] * 10)
        est.invalidate("k")
        est.estimate("k", [(1, 2)] * 10)
        assert counter.calls == 8               # sampled twice

    def test_invalidate_all(self):
        est = SizeEstimator(CostModel())
        est.estimate("a", [(1, 1)] * 5)
        est.estimate("b", [(2, 2)] * 5)
        est.invalidate()
        assert est._per_record == {}


class TestWriteBucketsSampling:
    """A map task's record is sized from its bounded sample, one pickled
    sample per shuffle (``MapTaskOutput.size``)."""

    def _dep(self):
        ctx = DataflowContext(default_parallelism=2)
        parent = ctx.parallelize([("_", 0)], 1)
        return ShuffleDependency(parent, HashPartitioner(16))

    def _sized(self, dep, records, cost, est):
        out = shuffleio.run_map_task(dep, 0, None, cost, records)
        out.size(dep.shuffle_id, est)
        return out

    def test_one_sample_per_map_output_not_per_bucket(self, monkeypatch):
        counter = _PickleCounter(monkeypatch)
        cost = CostModel(sample_size=32)
        est = SizeEstimator(cost)
        dep = self._dep()
        records = [(i, i) for i in range(2000)]
        self._sized(dep, records, cost, est)
        assert counter.calls == 32              # one sample, not 16
        # a second map output for the same shuffle: zero new pickles
        self._sized(dep, records, cost, est)
        assert counter.calls == 32

    def test_sample_sizes_like_the_whole_output(self):
        # the record carries only cost.sample_indices' records, and they
        # fix the same per-record size as sampling the whole output
        cost = CostModel(sample_size=8)
        dep = self._dep()
        records = [(i, "v" * (i % 13)) for i in range(300)]
        out = self._sized(dep, records, cost, SizeEstimator(cost))
        assert len(out.sample) == 8
        assert cost.per_record_bytes(out.sample) == \
            cost.per_record_bytes(records)

    def test_bucket_bytes_consistent_with_cost_model(self):
        cost = CostModel()
        dep = self._dep()
        records = [(i, "v" * 10) for i in range(500)]
        out = self._sized(dep, records, cost, SizeEstimator(cost))
        per = cost.per_record_bytes(records)
        assert len(out.bucket_bytes) == 16
        assert out.lengths == [len(b) for b in out.buckets]
        assert out.bucket_bytes == [per * len(b) for b in out.buckets]
