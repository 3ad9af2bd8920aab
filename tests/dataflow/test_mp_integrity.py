"""Checksummed shuffle plane: bucket-file validation and pool recovery."""

import os
import pickle
import zlib

import pytest

from repro.common.errors import BucketFileError, ChecksumError
from repro.dataflow import DataflowContext, ProcessPoolBackend
from repro.dataflow.shuffleio import read_bucket_file, write_bucket_file

BUCKETS = [[("a", 1), ("b", 2)], [], [("c", [3, 4]), ("d", None)]]


@pytest.fixture()
def spill(tmp_path):
    path = str(tmp_path / "s0-m0.buckets")
    offsets = write_bucket_file(path, BUCKETS, checksums=True)
    return path, offsets


class TestBucketFileValidation:
    def test_round_trip_all_buckets(self, spill):
        path, offsets = spill
        for r, want in enumerate(BUCKETS):
            assert read_bucket_file(path, offsets, r) == want

    def test_offsets_carry_crc(self, spill):
        _, offsets = spill
        assert all(len(e) == 3 for e in offsets)

    def test_reduce_id_out_of_range(self, spill):
        path, offsets = spill
        for bad in (-1, len(BUCKETS), 99):
            with pytest.raises(BucketFileError) as ei:
                read_bucket_file(path, offsets, bad)
            assert ei.value.path == path
            assert ei.value.reduce_id == bad

    def test_window_beyond_file_size(self, spill):
        path, offsets = spill
        off, length = offsets[2][0], offsets[2][1]
        doctored = list(offsets)
        doctored[2] = (off, length + 10_000, offsets[2][2])
        with pytest.raises(BucketFileError) as ei:
            read_bucket_file(path, doctored, 2)
        err = ei.value
        assert err.offset == off and err.length == length + 10_000
        assert err.file_size == os.path.getsize(path)

    def test_negative_window_rejected(self, spill):
        path, offsets = spill
        doctored = list(offsets)
        doctored[1] = (-4, offsets[1][1], offsets[1][2])
        with pytest.raises(BucketFileError):
            read_bucket_file(path, doctored, 1)

    def test_truncated_file_is_typed(self, spill):
        path, offsets = spill
        size = os.path.getsize(path)
        with open(path, "r+b") as f:
            f.truncate(size - 3)
        with pytest.raises(BucketFileError):
            read_bucket_file(path, offsets, 2)

    def test_flipped_byte_raises_checksum_error(self, spill):
        path, offsets = spill
        off = offsets[2][0]
        with open(path, "r+b") as f:
            f.seek(off + 1)
            b = f.read(1)
            f.seek(off + 1)
            f.write(bytes([b[0] ^ 0xFF]))
        # bucket 0 untouched, still serves
        assert read_bucket_file(path, offsets, 0) == BUCKETS[0]
        with pytest.raises(ChecksumError) as ei:
            read_bucket_file(path, offsets, 2)
        err = ei.value
        assert err.layer == "shuffle"
        assert err.path == path
        assert err.offset == off
        # provenance survives the worker->driver pickle hop
        back = pickle.loads(pickle.dumps(err))
        assert (back.layer, back.path, back.offset) == \
            ("shuffle", path, off)

    def test_checksums_off_writes_pairs(self, tmp_path):
        path = str(tmp_path / "plain.buckets")
        offsets = write_bucket_file(path, BUCKETS, checksums=False)
        assert all(len(e) == 2 for e in offsets)
        # no CRC recorded -> corruption passes unverified (the A/B
        # control the perf suite measures against)
        for r, want in enumerate(BUCKETS):
            assert read_bucket_file(path, offsets, r) == want


def _flip_spill_byte(path, off):
    with open(path, "r+b") as f:
        f.seek(off)
        b = f.read(1)
        f.seek(off)
        f.write(bytes([b[0] ^ 0xFF]))


class TestPoolRecovery:
    def _wordcount(self, ctx):
        words = [f"w{i % 23}" for i in range(300)]
        return (ctx.parallelize(words, 5)
                .map(lambda w: (w, 1))
                .reduce_by_key(lambda a, b: a + b, 4))

    def test_corrupt_spill_file_recovered_end_to_end(self):
        backend = ProcessPoolBackend(n_workers=2)
        ctx = DataflowContext(default_parallelism=4)
        ctx.attach_pool(backend)
        ctx.backend = "pool"
        try:
            ds = self._wordcount(ctx)
            first = sorted(ds.collect())
            ex = ctx.pooled_executor
            assert ex.integrity_recoveries == 0
            # rot one bucket of the materialized spill file on disk
            (sid, refs), = ex._shuffle_refs.items()
            path, offsets = refs[0]
            _flip_spill_byte(path, offsets[2][0])
            # the cached shuffle is re-read by the next action: the
            # worker's ChecksumError comes back typed, the driver
            # re-runs exactly the producing map, and the answer is
            # byte-identical to the clean run
            again = sorted(ds.collect())
            assert again == first
            assert ex.integrity_recoveries == 1
            assert [a.error for a in ex.retry_session.history] == \
                ["corrupt bucket file"]
            # the refreshed spill file serves cleanly from here on
            assert sorted(ds.collect()) == first
            assert ex.integrity_recoveries == 1
        finally:
            backend.shutdown()

    def test_recovery_does_not_double_count_accumulators(self):
        backend = ProcessPoolBackend(n_workers=2)
        ctx = DataflowContext(default_parallelism=4)
        ctx.attach_pool(backend)
        ctx.backend = "pool"
        acc = ctx.accumulator(0)

        def f(x):
            acc.add(1)
            return (x % 6, x)

        try:
            ds = ctx.parallelize(range(120), 5).map(f) \
                    .reduce_by_key(lambda a, b: a + b, 4)
            first = sorted(ds.collect())
            assert acc.value == 120
            ex = ctx.pooled_executor
            (sid, refs), = ex._shuffle_refs.items()
            path, offsets = refs[1]
            _flip_spill_byte(path, offsets[0][0])
            assert sorted(ds.collect()) == first
            assert ex.integrity_recoveries == 1
            # the recovery map re-run replaces bytes only: its stashes
            # are discarded, so the map-side count stays exactly-once
            assert acc.value == 120
        finally:
            backend.shutdown()

    def test_unattributable_checksum_error_reraises(self):
        backend = ProcessPoolBackend(n_workers=2)
        ctx = DataflowContext(default_parallelism=4)
        ctx.attach_pool(backend)
        ctx.backend = "pool"
        try:
            self._wordcount(ctx).collect()
            ex = ctx.pooled_executor
            exc = ChecksumError(layer="shuffle", path="/no/such/spill",
                                offset=0, expected=1, actual=2)
            with pytest.raises(ChecksumError):
                ex._recover_corrupt_bucket(exc)
        finally:
            backend.shutdown()
