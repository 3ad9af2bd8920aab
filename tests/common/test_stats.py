"""Summary statistics, time-weighted averages, fairness."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.stats import Summary, TimeWeighted, jain_index, percentile


class TestSummary:
    def test_empty(self):
        s = Summary()
        assert s.count == 0 and s.mean == 0.0 and s.variance == 0.0

    def test_single_value(self):
        s = Summary()
        s.add(5.0)
        assert s.mean == 5.0 and s.min == 5.0 and s.max == 5.0

    def test_mean_matches_numpy(self):
        xs = [1.5, 2.5, -3.0, 10.0, 0.0]
        s = Summary()
        s.extend(xs)
        assert s.mean == pytest.approx(np.mean(xs))

    def test_stdev_matches_numpy(self):
        xs = list(np.random.default_rng(0).normal(size=100))
        s = Summary()
        s.extend(xs)
        assert s.stdev == pytest.approx(np.std(xs))

    def test_quantiles(self):
        s = Summary()
        s.extend(range(101))
        assert s.p50 == pytest.approx(50.0)
        assert s.p95 == pytest.approx(95.0)
        assert s.p99 == pytest.approx(99.0)

    def test_total(self):
        s = Summary()
        s.extend([1, 2, 3])
        assert s.total == pytest.approx(6.0)

    def test_keep_values_false_blocks_quantiles(self):
        s = Summary(keep_values=False)
        s.add(1.0)
        with pytest.raises(ValueError):
            s.quantile(0.5)
        with pytest.raises(ValueError):
            s.values()

    def test_len(self):
        s = Summary()
        s.extend([1, 2])
        assert len(s) == 2

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=200))
    @settings(max_examples=50, deadline=None)
    def test_welford_agrees_with_numpy(self, xs):
        s = Summary()
        s.extend(xs)
        assert s.mean == pytest.approx(float(np.mean(xs)), rel=1e-9, abs=1e-6)
        assert s.variance == pytest.approx(float(np.var(xs)), rel=1e-6, abs=1e-4)
        assert s.min == min(xs) and s.max == max(xs)


class TestWeightedSummary:
    """Weighted add(): semantics must match expanding the sample."""

    def expand(self, pairs):
        return [x for x, w in pairs for _ in range(w)]

    def test_moments_match_expanded_sample(self):
        pairs = [(1.5, 3), (-2.0, 1), (4.25, 5), (0.0, 2)]
        s = Summary()
        for x, w in pairs:
            s.add(x, weight=w)
        xs = self.expand(pairs)
        assert s.count == len(xs)
        assert s.total == pytest.approx(sum(xs))
        assert s.mean == pytest.approx(np.mean(xs))
        assert s.variance == pytest.approx(np.var(xs))

    def test_quantiles_match_expanded_sample(self):
        pairs = [(10.0, 1), (1.0, 9), (5.0, 4)]
        s = Summary()
        for x, w in pairs:
            s.add(x, weight=w)
        xs = self.expand(pairs)
        for q in (0.0, 0.25, 0.5, 0.9, 0.95, 1.0):
            assert s.quantile(q) == pytest.approx(np.quantile(xs, q)), q

    def test_values_expand_weights(self):
        s = Summary()
        s.add(2.0, weight=3)
        s.add(7.0)
        assert sorted(s.values()) == [2.0, 2.0, 2.0, 7.0]

    def test_zero_weight_ignored(self):
        s = Summary()
        s.add(99.0, weight=0)
        assert s.count == 0

    def test_negative_weight_rejected(self):
        s = Summary()
        with pytest.raises(ValueError):
            s.add(1.0, weight=-1)

    def test_unweighted_path_unchanged(self):
        # plain add() must stay numerically identical to the old path
        xs = list(np.random.default_rng(1).normal(size=50))
        a, b = Summary(), Summary()
        a.extend(xs)
        for x in xs:
            b.add(x, weight=1)
        assert a.mean == b.mean and a.variance == b.variance
        assert a.quantile(0.5) == b.quantile(0.5)

    @given(st.lists(st.tuples(st.floats(-1e4, 1e4), st.integers(1, 9)),
                    min_size=1, max_size=60))
    @settings(max_examples=50, deadline=None)
    def test_weighted_agrees_with_numpy(self, pairs):
        s = Summary()
        for x, w in pairs:
            s.add(x, weight=w)
        xs = self.expand(pairs)
        assert s.mean == pytest.approx(float(np.mean(xs)), rel=1e-9, abs=1e-6)
        assert s.variance == pytest.approx(float(np.var(xs)),
                                           rel=1e-6, abs=1e-4)
        for q in (0.1, 0.5, 0.99):
            assert s.quantile(q) == pytest.approx(
                float(np.quantile(xs, q)), rel=1e-9, abs=1e-6)


class TestTimeWeighted:
    def test_constant_signal(self):
        tw = TimeWeighted()
        tw.update(0.0, 3.0)
        assert tw.average(10.0) == pytest.approx(3.0)

    def test_step_signal(self):
        tw = TimeWeighted()
        tw.update(0.0, 0.0)
        tw.update(5.0, 10.0)
        assert tw.average(10.0) == pytest.approx(5.0)

    def test_non_zero_start(self):
        tw = TimeWeighted()
        tw.update(100.0, 2.0)
        tw.update(110.0, 4.0)
        assert tw.average(120.0) == pytest.approx(3.0)

    def test_time_travel_rejected(self):
        tw = TimeWeighted()
        tw.update(5.0, 1.0)
        with pytest.raises(ValueError):
            tw.update(4.0, 1.0)
        with pytest.raises(ValueError):
            tw.average(4.0)

    def test_empty(self):
        assert TimeWeighted().average() == 0.0

    def test_level_property(self):
        tw = TimeWeighted()
        tw.update(0.0, 7.0)
        assert tw.level == 7.0


class TestJainIndex:
    def test_perfectly_fair(self):
        assert jain_index([5, 5, 5, 5]) == pytest.approx(1.0)

    def test_totally_unfair(self):
        # one user gets everything: index -> 1/n
        assert jain_index([10, 0, 0, 0]) == pytest.approx(0.25)

    def test_empty_and_zero(self):
        assert jain_index([]) == 1.0
        assert jain_index([0, 0]) == 1.0

    @given(st.lists(st.floats(0, 1e6), min_size=1, max_size=50))
    @settings(max_examples=50, deadline=None)
    def test_bounds(self, xs):
        j = jain_index(xs)
        assert 0.0 < j <= 1.0 + 1e-9


class TestPercentileAndCdf:
    def test_percentile(self):
        assert percentile(range(101), 95) == pytest.approx(95.0)

    def test_percentile_empty(self):
        assert percentile([], 50) == 0.0
