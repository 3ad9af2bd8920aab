"""GF(2^8) field arithmetic: axioms and known vectors."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage.gf256 import (
    EXP_TABLE,
    LOG_TABLE,
    MUL_TABLE,
    gf_add,
    gf_div,
    gf_inv,
    gf_mat_inv,
    gf_matmul,
    gf_mul,
    gf_mul_bytes,
    gf_pow,
)

elem = st.integers(0, 255)
nonzero = st.integers(1, 255)


class TestKnownVectors:
    def test_aes_example(self):
        # FIPS-197 worked example: {57} x {83} = {c1}
        assert gf_mul(0x57, 0x83) == 0xC1

    def test_mul_by_zero_one(self):
        assert gf_mul(0, 77) == 0
        assert gf_mul(77, 1) == 77

    def test_exp_log_roundtrip(self):
        for a in range(1, 256):
            assert EXP_TABLE[LOG_TABLE[a]] == a

    def test_product_table_is_exhaustively_gf_mul(self):
        want = [[gf_mul(a, b) for b in range(256)] for a in range(256)]
        assert MUL_TABLE.dtype == np.uint8
        assert MUL_TABLE.tolist() == want


class TestFieldAxioms:
    @given(elem, elem)
    @settings(max_examples=200, deadline=None)
    def test_commutative(self, a, b):
        assert gf_mul(a, b) == gf_mul(b, a)

    @given(elem, elem, elem)
    @settings(max_examples=200, deadline=None)
    def test_associative(self, a, b, c):
        assert gf_mul(gf_mul(a, b), c) == gf_mul(a, gf_mul(b, c))

    @given(elem, elem, elem)
    @settings(max_examples=200, deadline=None)
    def test_distributive(self, a, b, c):
        assert gf_mul(a, gf_add(b, c)) == \
            gf_add(gf_mul(a, b), gf_mul(a, c))

    @given(nonzero)
    @settings(max_examples=100, deadline=None)
    def test_inverse(self, a):
        assert gf_mul(a, gf_inv(a)) == 1

    @given(elem, nonzero)
    @settings(max_examples=100, deadline=None)
    def test_div_is_mul_inverse(self, a, b):
        assert gf_div(a, b) == gf_mul(a, gf_inv(b))

    def test_zero_division(self):
        with pytest.raises(ZeroDivisionError):
            gf_inv(0)
        with pytest.raises(ZeroDivisionError):
            gf_div(5, 0)

    @given(nonzero, st.integers(0, 10))
    @settings(max_examples=100, deadline=None)
    def test_pow_repeated_mul(self, a, n):
        expected = 1
        for _ in range(n):
            expected = gf_mul(expected, a)
        assert gf_pow(a, n) == expected

    def test_pow_edge_cases(self):
        assert gf_pow(0, 0) == 1
        assert gf_pow(0, 5) == 0


class TestVectorized:
    @given(elem, st.lists(elem, min_size=1, max_size=64))
    @settings(max_examples=100, deadline=None)
    def test_mul_bytes_matches_scalar(self, c, data):
        arr = np.array(data, dtype=np.uint8)
        out = gf_mul_bytes(c, arr)
        assert list(out) == [gf_mul(c, x) for x in data]

    def test_matmul_identity(self):
        rng = np.random.default_rng(0)
        m = rng.integers(0, 256, size=(4, 10), dtype=np.uint8)
        eye = np.eye(4, dtype=np.uint8)
        assert np.array_equal(gf_matmul(eye, m), m)

    def test_matmul_shape_mismatch(self):
        with pytest.raises(ValueError):
            gf_matmul(np.zeros((2, 3), np.uint8), np.zeros((2, 3), np.uint8))

    def test_mat_inv_roundtrip(self):
        rng = np.random.default_rng(1)
        for n in (1, 2, 4, 6):
            while True:
                m = rng.integers(0, 256, size=(n, n), dtype=np.uint8)
                try:
                    inv = gf_mat_inv(m)
                    break
                except np.linalg.LinAlgError:
                    continue
            assert np.array_equal(gf_matmul(m, inv), np.eye(n, dtype=np.uint8))

    def test_singular_matrix_raises(self):
        m = np.array([[1, 2], [1, 2]], dtype=np.uint8)
        with pytest.raises(np.linalg.LinAlgError):
            gf_mat_inv(m)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            gf_mat_inv(np.zeros((2, 3), np.uint8))
