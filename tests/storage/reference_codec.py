"""Test-only reference: the GF(256) codec as it was before the product
table.

``test_codec_differential.py`` checks :mod:`repro.storage.gf256` and
:class:`repro.storage.RSCode` against this copy.  The bodies are kept
verbatim (functions renamed, ``self`` turned into a ``code`` argument),
so the comparison is against the masked log/exp multiply and the
decode-everything repair that the table-driven codec must match byte
for byte.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.common.errors import InsufficientReplicasError
from repro.storage.gf256 import EXP_TABLE, LOG_TABLE, gf_inv


def reference_gf_mul_bytes(c: int, data: np.ndarray) -> np.ndarray:
    """Multiply every byte of ``data`` by the constant ``c`` (vectorized)."""
    data = np.asarray(data, dtype=np.uint8)
    if c == 0:
        return np.zeros_like(data)
    if c == 1:
        return data.copy()
    log_c = int(LOG_TABLE[c])
    out = np.zeros_like(data)
    nz = data != 0
    out[nz] = EXP_TABLE[LOG_TABLE[data[nz]] + log_c]
    return out


def reference_gf_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product over GF(2^8).

    ``a`` is (m, k), ``b`` is (k, n); returns (m, n).  Vectorized by rows:
    each output row is the XOR of constant-multiplied rows of ``b``.
    """
    a = np.asarray(a, dtype=np.uint8)
    b = np.asarray(b, dtype=np.uint8)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ValueError(f"shape mismatch {a.shape} x {b.shape}")
    m, k = a.shape
    n = b.shape[1]
    out = np.zeros((m, n), dtype=np.uint8)
    for i in range(m):
        acc = np.zeros(n, dtype=np.uint8)
        for j in range(k):
            coeff = int(a[i, j])
            if coeff:
                acc ^= reference_gf_mul_bytes(coeff, b[j])
        out[i] = acc
    return out


def reference_gf_mat_inv(mat: np.ndarray) -> np.ndarray:
    """Inverse of a square matrix over GF(2^8) by Gauss–Jordan.

    Raises :class:`numpy.linalg.LinAlgError` when singular.
    """
    mat = np.asarray(mat, dtype=np.uint8)
    n = mat.shape[0]
    if mat.shape != (n, n):
        raise ValueError("matrix must be square")
    aug = np.concatenate(
        [mat.astype(np.uint8), np.eye(n, dtype=np.uint8)], axis=1)
    for col in range(n):
        # pivot
        pivot = None
        for r in range(col, n):
            if aug[r, col]:
                pivot = r
                break
        if pivot is None:
            raise np.linalg.LinAlgError("singular matrix over GF(256)")
        if pivot != col:
            aug[[col, pivot]] = aug[[pivot, col]]
        inv_p = gf_inv(int(aug[col, col]))
        aug[col] = reference_gf_mul_bytes(inv_p, aug[col])
        for r in range(n):
            if r != col and aug[r, col]:
                aug[r] ^= reference_gf_mul_bytes(int(aug[r, col]), aug[col])
    return aug[:, n:].copy()


def reference_encode(code, data: bytes) -> List[bytes]:
    """Split + encode ``data`` into ``k+m`` equal-size fragments.

    Fragments ``0..k-1`` are the (zero-padded) data shards; ``k..n-1``
    are parity.
    """
    data = bytes(data)
    frag = code.fragment_size(len(data))
    if frag == 0:
        return [b""] * code.n
    padded = np.zeros(code.k * frag, dtype=np.uint8)
    padded[: len(data)] = np.frombuffer(data, dtype=np.uint8)
    shards = padded.reshape(code.k, frag)
    if code.m:
        parity = reference_gf_matmul(code._parity, shards)
        all_shards = np.concatenate([shards, parity], axis=0)
    else:
        all_shards = shards
    return [s.tobytes() for s in all_shards]


def reference_decode(code, fragments: Dict[int, bytes],
                     orig_len: int) -> bytes:
    """Rebuild the original block from any ``k`` fragments.

    ``fragments`` maps fragment index → bytes.  Raises
    :class:`InsufficientReplicasError` with fewer than ``k`` fragments.
    """
    if orig_len == 0:
        return b""
    if len(fragments) < code.k:
        raise InsufficientReplicasError(
            f"need {code.k} fragments, have {len(fragments)}")
    idxs = sorted(fragments)[: code.k]
    frag = code.fragment_size(orig_len)
    rows = np.stack([
        np.frombuffer(fragments[i], dtype=np.uint8) for i in idxs])
    if rows.shape[1] != frag:
        raise ValueError(
            f"fragment size {rows.shape[1]} != expected {frag}")
    if all(i < code.k for i in idxs) and idxs == list(range(code.k)):
        data = rows.reshape(-1)
    else:
        sub = code._matrix[idxs]           # k×k, invertible by Cauchy
        inv = reference_gf_mat_inv(sub)
        data = reference_gf_matmul(inv, rows).reshape(-1)
    return data.tobytes()[:orig_len]


def reference_reconstruct_fragment(code, fragments: Dict[int, bytes],
                                   missing: int, orig_len: int) -> bytes:
    """Rebuild a single lost fragment from any ``k`` survivors.

    This is the repair path: decode to data shards, re-encode the one
    missing row.  Network cost (k fragment reads) is charged by the
    storage layer, not here.
    """
    if not (0 <= missing < code.n):
        raise ValueError(f"fragment index {missing} out of range")
    data = reference_decode(code, fragments,
                            orig_len=code.fragment_size(orig_len) * code.k)
    frag = code.fragment_size(orig_len)
    shards = np.frombuffer(data, dtype=np.uint8).reshape(code.k, frag)
    if missing < code.k:
        return shards[missing].tobytes()
    row = code._parity[missing - code.k: missing - code.k + 1]
    return reference_gf_matmul(row, shards)[0].tobytes()
