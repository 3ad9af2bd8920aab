"""Vectorized partitioning: element-wise agreement with the scalar path,
and byte-identity of the vectorized shuffle write.

The contract under test: ``partition_many(keys)[i] == partition(keys[i])``
for every key the scalar path accepts, and every executor's map task,
``run_map_task`` (map-side combine, then ``write_buckets``), produces
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
    ExecOptions,
    HashPartitioner,
    RangePartitioner,
    SimEngine,
    stable_hash,
    stable_hash_many,
)
from repro.dataflow import shuffleio
from repro.dataflow.plan import Aggregator, ShuffleDependency, TaskRuntime
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


#: How the map dataset of a shuffle is built from its records, and the
#: ``SINK_FALLBACKS`` reason a combining map task reports on it with
#: fusion on (``prefetched``: the records are handed in via ``records=``).
_PARENTS = {
    "sink": (lambda src: src.map(lambda r: r), None),
    "not_mapped": (lambda src: src, "not_mapped"),
    "iter_tail": (lambda src: src.map_partitions(list), "iter_tail"),
    "cached": (lambda src: src.map(lambda r: r).cache(), "cached"),
    "prefetched": (lambda src: src.map(lambda r: r), "prefetched"),
}


def _both_legs(partitioner, records, aggregator=None, parent="sink",
               fusion=True):
    """The executors' map task (``run_map_task``, one split) against the
    scalar oracle, which combines the raw records itself; the map-side
    combine is on exactly when an ``aggregator`` is given."""
    ctx = DataflowContext(default_parallelism=1,
                          options=ExecOptions(fusion=fusion))
    build, reason = _PARENTS[parent]
    dep = ShuffleDependency(build(ctx.parallelize(records, 1)), partitioner,
                            aggregator=aggregator,
                            map_side_combine=aggregator is not None)
    cost = CostModel()
    out = shuffleio.run_map_task(
        dep, 0, TaskRuntime(), cost,
        list(records) if parent == "prefetched" else None)
    scalar = shuffleio._write_buckets_scalar(dep, records, cost)
    assert out.records_in == len(records)
    assert out.lengths == [len(b) for b in out.buckets]
    assert out.fallback == (reason if aggregator and fusion else None)
    return out, scalar


class TestWriteBucketsByteIdentity:
    @pytest.mark.parametrize("combine", [False, True],
                             ids=["plain", "combine"])
    @pytest.mark.parametrize("family", sorted(_key_families()))
    def test_hash_shuffle(self, family, combine):
        keys = _key_families()[family]
        records = [(k, i % 7) for i, k in enumerate(keys * 4)]
        out, scalar = _both_legs(HashPartitioner(8), records,
                                 _SUM if combine else None)
        assert out.buckets == scalar[0]     # bucket contents AND order
        assert out.written == scalar[1]     # records written

    def test_range_shuffle_identical(self):
        records = teragen(4000, key_bytes=10, payload_bytes=8, seed=5)
        part = RangePartitioner.from_sample([r[0] for r in records[:400]],
                                            8, seed=6)
        out, scalar = _both_legs(part, records)
        assert out.buckets == scalar[0]
        assert out.written == scalar[1]

    def test_combine_identical_order_and_counts(self):
        docs = zipf_text(n_docs=40, words_per_doc=100, vocab_size=80,
                         skew=1.3, seed=7)
        records = [(w, 1) for d in docs for w in d.split()]
        out, scalar = _both_legs(HashPartitioner(4), records, _SUM)
        assert out.buckets == scalar[0]
        assert out.written == scalar[1]

    def test_empty_input(self):
        out, scalar = _both_legs(HashPartitioner(4), [])
        assert out.buckets == scalar[0] == [[] for _ in range(4)]
        assert out.written == scalar[1] == 0

    @pytest.mark.parametrize("fusion", [True, False], ids=["fused", "unfused"])
    @pytest.mark.parametrize("combine", [False, True],
                             ids=["plain", "combine"])
    @pytest.mark.parametrize("parent", sorted(_PARENTS))
    def test_every_map_dataset_shape(self, parent, combine, fusion):
        docs = zipf_text(n_docs=20, words_per_doc=50, vocab_size=60,
                         skew=1.2, seed=9)
        records = [(w, len(w)) for d in docs for w in d.split()]
        out, scalar = _both_legs(HashPartitioner(5), records,
                                 _SUM if combine else None, parent, fusion)
        assert out.buckets == scalar[0]
        assert out.written == scalar[1]


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
