"""Vectorized partitioning: element-wise agreement with the scalar path,
and byte-identity of the vectorized shuffle write.

The contract under test: ``partition_many(keys)[i] == partition(keys[i])``
for every key the scalar path accepts, and ``write_buckets`` (fed the
map-side-combined items, as every executor feeds it) produces
*identical* buckets (contents and order) to the per-record reference
``_write_buckets_scalar`` — the oracle no executor runs, kept so the
vectorized writer can never change a job's output, only its speed.
"""

import math
import operator
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import make_cluster
from repro.dataflow import (
    CostModel,
    DataflowContext,
    HashPartitioner,
    RangePartitioner,
    SimEngine,
    SizeEstimator,
    stable_hash,
    stable_hash_many,
)
from repro.dataflow import shuffleio
from repro.dataflow.plan import Aggregator, ShuffleDependency
from repro.simcore import Simulator
from repro.workloads import teragen, zipf_text


def _rng():
    return random.Random(0xC0FFEE)


def _key_families():
    rng = _rng()
    return {
        "int": [rng.randrange(-10 ** 6, 10 ** 6) for _ in range(700)],
        "bigint": [rng.randrange(-10 ** 30, 10 ** 30) for _ in range(200)],
        "float": ([rng.uniform(-1e9, 1e9) for _ in range(300)]
                  + [0.0, -0.0, math.inf, -math.inf, 1e-300]),
        "str": (["w%04d" % rng.randrange(300) for _ in range(300)]
                + ["", "déjà vu", "é́", "z" * 50]),
        "bytes_uniform": [bytes(rng.randrange(256) for _ in range(10))
                          for _ in range(500)],
        "bytes_mixed": [bytes(rng.randrange(256)
                              for _ in range(rng.randrange(0, 15)))
                        for _ in range(500)],
        "bytes_collisions": [b"ab", b"ab\x00", b"ab\x01", b"abcdefgh",
                             b"abcdefgh\x00", b"abcdefghz", b""] * 30,
        "tuple_int": [(rng.randrange(100), rng.randrange(100))
                      for _ in range(300)],
    }


# families whose keys are mutually orderable (RangePartitioner input)
_ORDERABLE = ("int", "bigint", "float", "str", "bytes_uniform",
              "bytes_mixed", "bytes_collisions", "tuple_int")


class TestHashAgreement:
    @pytest.mark.parametrize("family", sorted(_key_families()))
    def test_partition_many_matches_scalar(self, family):
        keys = _key_families()[family]
        for n in (1, 7, 16):
            p = HashPartitioner(n)
            assert p.partition_many(keys).tolist() == \
                [p.partition(k) for k in keys]

    def test_mixed_type_keys(self):
        keys = [1, "one", b"one", (1,), 1.5, None, True, 10 ** 40]
        p = HashPartitioner(5)
        assert p.partition_many(keys).tolist() == \
            [p.partition(k) for k in keys]

    def test_nan_and_signed_zero(self):
        keys = [float("nan"), 0.0, -0.0, 5.0]
        assert stable_hash_many(keys).tolist() == \
            [stable_hash(k) for k in keys]

    @given(st.lists(st.one_of(st.integers(), st.text(), st.binary(),
                              st.floats(allow_nan=False),
                              st.tuples(st.integers(), st.integers())),
                    min_size=1, max_size=80))
    @settings(max_examples=80, deadline=None)
    def test_stable_hash_many_property(self, keys):
        assert stable_hash_many(keys).tolist() == \
            [stable_hash(k) for k in keys]


class TestRangeAgreement:
    @pytest.mark.parametrize("family", _ORDERABLE)
    @pytest.mark.parametrize("ascending", [True, False])
    def test_partition_many_matches_scalar(self, family, ascending):
        keys = _key_families()[family]
        rng = _rng()
        for n in (1, 4, 16):
            sample = rng.sample(keys, min(len(keys), 10 * n))
            p = RangePartitioner.from_sample(sample, n, ascending=ascending,
                                             seed=1)
            assert p.partition_many(keys).tolist() == \
                [p.partition(k) for k in keys]

    def test_nan_keys_fall_back_to_python_semantics(self):
        keys = [1.0, float("nan"), 7.5, -2.0]
        p = RangePartitioner(4, [0.0, 2.0, 5.0])
        assert p.partition_many(keys).tolist() == \
            [p.partition(k) for k in keys]

    def test_boundary_exact_hits(self):
        # side='left' semantics: a key equal to a boundary belongs left
        p = RangePartitioner(4, [10, 20, 30])
        keys = [9, 10, 11, 20, 29, 30, 31]
        assert p.partition_many(keys).tolist() == \
            [p.partition(k) for k in keys]

    def test_empty_keys(self):
        p = RangePartitioner(3, [1, 2])
        assert p.partition_many([]).tolist() == []

    def test_repeated_calls_use_cached_boundary_state(self):
        keys = [bytes([b]) * 10 for b in range(200)]
        p = RangePartitioner.from_sample(keys, 8, seed=2)
        first = p.partition_many(keys).tolist()
        second = p.partition_many(keys).tolist()
        assert first == second == [p.partition(k) for k in keys]

    @given(st.lists(st.binary(min_size=0, max_size=12), min_size=1,
                    max_size=120),
           st.integers(1, 8))
    @settings(max_examples=80, deadline=None)
    def test_bytes_property(self, keys, n):
        p = RangePartitioner.from_sample(keys, n, seed=4)
        assert p.partition_many(keys).tolist() == \
            [p.partition(k) for k in keys]


_SUM = Aggregator(create=lambda v: v,
                  merge_value=lambda a, b: a + b,
                  merge_combiners=lambda a, b: a + b)


def _dep(partitioner, aggregator=None, combine=False):
    ctx = DataflowContext(default_parallelism=2)
    parent = ctx.parallelize([("_", 0)], 1)
    return ShuffleDependency(parent, partitioner, aggregator=aggregator,
                             map_side_combine=combine)


def _both_legs(dep, records):
    """The executors' path (map-side combine, then ``write_buckets``)
    against the scalar oracle, which combines the raw records itself."""
    cost = CostModel()
    items = (shuffleio._combine(dep, records) if dep.map_side_combine
             else records)
    vec = shuffleio.write_buckets(dep, items, cost, SizeEstimator(cost))
    scalar = shuffleio._write_buckets_scalar(dep, records, cost)
    return vec, scalar


class TestWriteBucketsByteIdentity:
    @pytest.mark.parametrize("combine", [False, True],
                             ids=["plain", "combine"])
    @pytest.mark.parametrize("family", sorted(_key_families()))
    def test_hash_shuffle(self, family, combine):
        keys = _key_families()[family]
        records = [(k, i % 7) for i, k in enumerate(keys * 4)]
        dep = _dep(HashPartitioner(8), _SUM if combine else None, combine)
        vec, scalar = _both_legs(dep, records)
        assert vec[0] == scalar[0]          # bucket contents AND order
        assert vec[1] == scalar[1]          # records written

    def test_range_shuffle_identical(self):
        records = teragen(4000, key_bytes=10, payload_bytes=8, seed=5)
        part = RangePartitioner.from_sample([r[0] for r in records[:400]],
                                            8, seed=6)
        vec, scalar = _both_legs(_dep(part), records)
        assert vec[0] == scalar[0]
        assert vec[1] == scalar[1]

    def test_combine_identical_order_and_counts(self):
        docs = zipf_text(n_docs=40, words_per_doc=100, vocab_size=80,
                         skew=1.3, seed=7)
        records = [(w, 1) for d in docs for w in d.split()]
        vec, scalar = _both_legs(_dep(HashPartitioner(4), _SUM, True),
                                 records)
        assert vec[0] == scalar[0]
        assert vec[1] == scalar[1]

    def test_empty_input(self):
        vec, scalar = _both_legs(_dep(HashPartitioner(4)), [])
        assert vec[0] == scalar[0] == [[] for _ in range(4)]
        assert vec[1] == scalar[1] == 0


class TestEndToEndByteIdentity:
    """The skewed-combiner workload computes the same result on the local
    executor and the simulated engine."""

    def _plan(self, ctx):
        docs = zipf_text(n_docs=60, words_per_doc=120, vocab_size=150,
                         skew=1.3, seed=8)
        words = [w for d in docs for w in d.split()]
        return (ctx.parallelize(words, 8)
                .map(lambda w: (w, 1))
                .reduce_by_key(operator.add, 4))

    def _run_sim(self):
        sim = Simulator()
        cl = make_cluster(sim, 2, 2)
        ctx = DataflowContext(default_parallelism=8)
        eng = SimEngine(cl)
        res = sim.run_until_done(eng.collect(self._plan(ctx)))
        return res.value

    def test_local_vs_engine(self):
        local = self._plan(DataflowContext(default_parallelism=8)).collect()
        assert sorted(local) == sorted(self._run_sim())
