"""Integrity primitives: round-trip, flip detection, edge geometry."""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import ChecksumError
from repro.storage import integrity
from repro.storage.integrity import Seal, chunk_checksums, flip_byte, seal, verify


class TestSealRoundTrip:
    def test_intact_data_verifies(self):
        data = bytes(range(256)) * 100
        verify(data, seal(data))   # no raise

    def test_empty_payload(self):
        s = seal(b"")
        assert s.length == 0 and s.sums == ()
        verify(b"", s)   # zero-length round-trips

    def test_chunk_count_geometry(self):
        # exactly-one-chunk, one-over, and many-chunk payloads
        cs = 64
        for n, want in ((0, 0), (1, 1), (cs, 1), (cs + 1, 2),
                        (5 * cs, 5), (5 * cs + 3, 6)):
            assert len(chunk_checksums(b"x" * n, cs)) == want

    @given(st.binary(max_size=4096),
           st.integers(min_value=1, max_value=257))
    @settings(max_examples=150, deadline=None)
    def test_round_trip_any_chunking(self, data, cs):
        verify(data, seal(data, cs))

    def test_seal_is_picklable(self):
        s = seal(b"hello world")
        assert pickle.loads(pickle.dumps(s)) == s

    def test_bad_chunk_size_rejected(self):
        with pytest.raises(ValueError):
            chunk_checksums(b"x", 0)


class TestFlipDetection:
    @given(st.binary(min_size=1, max_size=2048),
           st.integers(min_value=0),
           st.integers(min_value=1, max_value=300))
    @settings(max_examples=200, deadline=None)
    def test_every_single_byte_flip_detected(self, data, offset, cs):
        # CRC32 catches any burst error <= 32 bits, so a one-byte XOR
        # flip must ALWAYS raise — this is the detection guarantee the
        # whole data plane leans on
        s = seal(data, cs)
        bad = flip_byte(data, offset)
        assert bad != data
        with pytest.raises(ChecksumError):
            verify(bad, s)

    def test_exhaustive_flips_small_payload(self):
        data = b"0123456789abcdef" * 4
        s = seal(data, 16)
        for off in range(len(data)):
            with pytest.raises(ChecksumError):
                verify(flip_byte(data, off), s)

    def test_flip_offset_wraps(self):
        data = b"abc"
        assert flip_byte(data, 3) == flip_byte(data, 0)

    def test_flip_empty_is_noop(self):
        assert flip_byte(b"", 5) == b""

    def test_flip_returns_fresh_object(self):
        data = b"shared"
        bad = flip_byte(data, 2)
        assert data == b"shared" and bad != data


class TestTruncationAndProvenance:
    @given(st.binary(min_size=1, max_size=1024),
           st.integers(min_value=0, max_value=1023))
    @settings(max_examples=100, deadline=None)
    def test_truncation_detected(self, data, cut):
        cut = cut % len(data)
        with pytest.raises(ChecksumError):
            verify(data[:cut], seal(data))

    def test_extension_detected(self):
        data = b"x" * 100
        with pytest.raises(ChecksumError):
            verify(data + b"y", seal(data))

    def test_error_carries_provenance(self):
        data = b"a" * 200
        s = seal(data, 64)
        bad = flip_byte(data, 130)   # third chunk
        with pytest.raises(ChecksumError) as ei:
            verify(bad, s, layer="dfs.replica", path="/f#b0s1",
                   offset_base=1000)
        err = ei.value
        assert err.layer == "dfs.replica"
        assert err.path == "/f#b0s1"
        assert err.offset == 1000 + 128   # chunk-aligned within the payload

    def test_error_pickles_with_provenance(self):
        # pool workers ship these driver-side via __reduce__
        err = ChecksumError(layer="shuffle", path="/tmp/s0-m1.buckets",
                            offset=42, expected=1, actual=2)
        back = pickle.loads(pickle.dumps(err))
        assert (back.layer, back.path, back.offset) == \
            ("shuffle", "/tmp/s0-m1.buckets", 42)


class TestObjectSeals:
    def test_object_round_trip(self):
        obj = [("k", 1), ("j", [2, 3])]
        blob, s = integrity.seal_object(obj)
        assert isinstance(blob, bytes) and s == seal(blob)
        back = integrity.verify_object(blob, s)
        assert back == obj and back is not obj

    def test_flipped_blob_raises(self):
        blob, s = integrity.seal_object([("k", 1)])
        with pytest.raises(ChecksumError) as ei:
            integrity.verify_object(flip_byte(blob, 3), s, layer="shuffle",
                                    path="/f.buckets", offset_base=500)
        err = ei.value
        assert (err.layer, err.path, err.offset) == \
            ("shuffle", "/f.buckets", 500)

    def test_chunk_boundary_payloads(self):
        # payload sizes straddling the default chunk size
        for n in (integrity.CHUNK_SIZE - 1, integrity.CHUNK_SIZE,
                  integrity.CHUNK_SIZE + 1):
            data = b"z" * n
            s = seal(data)
            verify(data, s)
            with pytest.raises(ChecksumError):
                verify(flip_byte(data, n - 1), s)
