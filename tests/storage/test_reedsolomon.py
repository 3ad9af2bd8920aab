"""Reed–Solomon codec: MDS property, round-trips, reconstruction."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import InsufficientReplicasError
from repro.storage.reedsolomon import RSCode


class TestBasics:
    def test_systematic_data_fragments(self):
        code = RSCode(4, 2)
        data = bytes(range(100))
        frags = code.encode(data)
        frag = code.fragment_size(len(data))
        padded = data + b"\0" * (4 * frag - len(data))
        for i in range(4):
            assert frags[i] == padded[i * frag:(i + 1) * frag]

    def test_fragment_count_and_size(self):
        code = RSCode(6, 3)
        frags = code.encode(b"x" * 1000)
        assert len(frags) == 9
        assert all(len(f) == code.fragment_size(1000) for f in frags)

    def test_storage_overhead(self):
        assert RSCode(6, 3).storage_overhead == pytest.approx(1.5)
        assert RSCode(10, 4).storage_overhead == pytest.approx(1.4)

    def test_empty_data(self):
        code = RSCode(3, 2)
        frags = code.encode(b"")
        assert frags == [b""] * 5
        assert code.decode({}, orig_len=0) == b""

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            RSCode(0, 1)
        with pytest.raises(ValueError):
            RSCode(200, 100)

    def test_m_zero_is_striping(self):
        code = RSCode(4, 0)
        data = b"hello world, this is striped"
        frags = code.encode(data)
        assert code.decode(dict(enumerate(frags)), len(data)) == data


class TestMDSProperty:
    def test_every_k_subset_decodes(self):
        """The defining MDS property: ANY k of n fragments suffice."""
        code = RSCode(4, 3)
        data = np.random.default_rng(0).integers(
            0, 256, 257, dtype=np.uint8).tobytes()
        frags = code.encode(data)
        for subset in itertools.combinations(range(7), 4):
            sub = {i: frags[i] for i in subset}
            assert code.decode(sub, len(data)) == data, subset

    def test_fewer_than_k_fails(self):
        code = RSCode(4, 2)
        frags = code.encode(b"abcdef")
        with pytest.raises(InsufficientReplicasError):
            code.decode({0: frags[0], 1: frags[1], 2: frags[2]}, 6)

    @given(st.binary(min_size=1, max_size=512),
           st.integers(1, 8), st.integers(0, 4))
    @settings(max_examples=60, deadline=None)
    def test_random_roundtrip(self, data, k, m):
        code = RSCode(k, m)
        frags = code.encode(data)
        rng = np.random.default_rng(len(data) * 31 + k * 7 + m)
        keep = sorted(rng.choice(k + m, size=k, replace=False).tolist())
        sub = {int(i): frags[int(i)] for i in keep}
        assert code.decode(sub, len(data)) == data


class TestReconstruction:
    def test_rebuild_each_fragment(self):
        code = RSCode(5, 3)
        data = bytes(np.random.default_rng(2).integers(0, 256, 333,
                                                       dtype=np.uint8))
        frags = code.encode(data)
        for missing in range(8):
            survivors = {i: frags[i] for i in range(8) if i != missing}
            survivors = dict(list(survivors.items())[:5])
            rebuilt = code.reconstruct_fragment(survivors, missing, len(data))
            assert rebuilt == frags[missing], missing

    def test_out_of_range_index(self):
        code = RSCode(2, 1)
        frags = code.encode(b"xy")
        with pytest.raises(ValueError):
            code.reconstruct_fragment(dict(enumerate(frags[:2])), 5, 2)

    def test_wrong_fragment_size_rejected(self):
        code = RSCode(2, 1)
        frags = code.encode(b"0123456789")
        bad = {0: frags[0], 1: frags[1][:-1]}
        with pytest.raises(ValueError):
            code.decode(bad, 10)


class TestFragmentIndexValidation:
    """Fragment keys outside [0, n) are rejected, not aliased."""

    def setup_method(self):
        self.code = RSCode(4, 2)
        self.data = bytes(range(40))
        self.frags = self.code.encode(self.data)

    def test_negative_key_does_not_alias_last_parity(self):
        # -1 used to index the last parity row through numpy negative
        # indexing, so this stripe decoded to the wrong bytes
        f = self.frags
        with pytest.raises(ValueError, match="outside"):
            self.code.decode({-1: f[4], 1: f[1], 2: f[2], 3: f[3]}, 40)
        with pytest.raises(ValueError, match="outside"):
            self.code.reconstruct_fragment(
                {-1: f[5], 1: f[1], 2: f[2], 3: f[3]}, 0, 40)

    def test_key_past_n_is_a_value_error(self):
        f = self.frags
        with pytest.raises(ValueError, match="outside"):
            self.code.decode({0: f[0], 1: f[1], 2: f[2], 6: f[5]}, 40)
        with pytest.raises(ValueError, match="outside"):
            self.code.reconstruct_fragment(
                {0: f[0], 1: f[1], 2: f[2], 6: f[5]}, 3, 40)

    def test_extra_out_of_range_key_is_rejected_too(self):
        # even when k valid fragments are present, and for empty blocks
        f = self.frags
        sub = {i: f[i] for i in range(6)}
        with pytest.raises(ValueError):
            self.code.decode({**sub, 7: f[0]}, 40)
        with pytest.raises(ValueError):
            self.code.decode({-2: b""}, 0)
