"""Differential test: the table-driven codec against its pre-table
reference.

:mod:`repro.storage.gf256` multiplies through one product table, and
:class:`RSCode` decodes only the lost data rows and repairs with one
composed row.  Every output must equal, byte for byte, the verbatim
reference in ``reference_codec.py``.  Decode and repair are also fed
stripes whose fragments are arbitrary bytes (not a consistent encoding),
so the check covers which survivors are used, not only that a valid
stripe round-trips.
"""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import InsufficientReplicasError
from repro.storage import RSCode
from repro.storage.gf256 import gf_mat_inv, gf_matmul, gf_mul_bytes

from .reference_codec import (
    reference_decode,
    reference_encode,
    reference_gf_mat_inv,
    reference_gf_matmul,
    reference_gf_mul_bytes,
    reference_reconstruct_fragment,
)

byte = st.integers(0, 255)
# small fields are where zero and one coefficients are common
coeff = st.one_of(st.sampled_from([0, 1]), byte)
codes = st.one_of(
    st.sampled_from([(6, 3), (4, 2), (3, 0), (1, 2), (10, 4), (2, 5)]),
    st.tuples(st.integers(1, 8), st.integers(0, 4)))


@functools.lru_cache(maxsize=None)
def _code(k, m):
    """One codec per (k, m) across examples, so its inverse cache fills
    with many survivor sets, as it does in a long-running DFS."""
    return RSCode(k, m)


def _matrix(draw, rows, cols):
    cells = draw(st.lists(coeff, min_size=rows * cols,
                          max_size=rows * cols))
    return np.array(cells, dtype=np.uint8).reshape(rows, cols)


@st.composite
def block(draw, k):
    """A block length of 0, 1, k, k+1 or anything up to 40 stripes."""
    n = draw(st.one_of(st.sampled_from([0, 1, k, k + 1]),
                       st.integers(0, 40 * k)))
    return draw(st.binary(min_size=n, max_size=n))


@st.composite
def stripe(draw):
    """A code, a block, its fragments (or arbitrary bytes of the right
    size), and a survivor set of at least k fragments."""
    k, m = draw(codes)
    code = _code(k, m)
    data = draw(block(k))
    frags = code.encode(data)
    if draw(st.booleans()):
        size = code.fragment_size(len(data))
        frags = [draw(st.binary(min_size=size, max_size=size))
                 for _ in frags]
    keep = draw(st.lists(st.integers(0, k + m - 1), min_size=k,
                         max_size=k + m, unique=True))
    return code, data, {i: frags[i] for i in keep}


@given(byte, st.binary(max_size=200))
@settings(max_examples=300, deadline=None)
def test_mul_bytes_matches_reference(c, data):
    arr = np.frombuffer(data, dtype=np.uint8)
    got = gf_mul_bytes(c, arr)
    want = reference_gf_mul_bytes(c, arr)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@given(st.data(), st.integers(1, 6), st.integers(1, 8), st.integers(0, 50))
@settings(max_examples=300, deadline=None)
def test_matmul_matches_reference(data, m, k, n):
    a = _matrix(data.draw, m, k)
    cells = data.draw(st.binary(min_size=k * n, max_size=k * n))
    b = np.frombuffer(cells, dtype=np.uint8).reshape(k, n)
    got = gf_matmul(a, b)
    want = reference_gf_matmul(a, b)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


@given(st.data(), st.integers(1, 7))
@settings(max_examples=300, deadline=None)
def test_mat_inv_matches_reference(data, n):
    mat = _matrix(data.draw, n, n)
    try:
        want = reference_gf_mat_inv(mat)
    except np.linalg.LinAlgError:
        with pytest.raises(np.linalg.LinAlgError):
            gf_mat_inv(mat)
        return
    assert gf_mat_inv(mat).tobytes() == want.tobytes()


@given(st.data(), codes)
@settings(max_examples=300, deadline=None)
def test_encode_matches_reference(data, km):
    code = _code(*km)
    payload = data.draw(block(code.k))
    assert code.encode(payload) == reference_encode(code, payload)


@given(stripe())
@settings(max_examples=400, deadline=None)
def test_decode_matches_reference(s):
    code, data, survivors = s
    assert code.decode(survivors, len(data)) \
        == reference_decode(code, survivors, len(data))


@given(stripe(), st.data())
@settings(max_examples=400, deadline=None)
def test_reconstruct_matches_reference(s, data):
    code, payload, survivors = s
    missing = data.draw(st.integers(0, code.n - 1))
    assert code.reconstruct_fragment(survivors, missing, len(payload)) \
        == reference_reconstruct_fragment(code, survivors, missing,
                                          len(payload))


@given(stripe(), st.data())
@settings(max_examples=100, deadline=None)
def test_too_few_survivors_fail_like_reference(s, data):
    code, payload, survivors = s
    if not payload:
        return
    drop = data.draw(st.integers(len(survivors) - code.k + 1,
                                 len(survivors)))
    few = dict(list(survivors.items())[drop:])
    with pytest.raises(InsufficientReplicasError):
        reference_decode(code, few, len(payload))
    with pytest.raises(InsufficientReplicasError):
        code.decode(few, len(payload))
    with pytest.raises(InsufficientReplicasError):
        code.reconstruct_fragment(few, 0, len(payload))
