"""Arithmetic over GF(2^8), vectorized with numpy.

The field is built on the AES polynomial x^8 + x^4 + x^3 + x + 1 (0x11B)
with generator 3.  Scalar products go through log/exp tables, bulk ones
through the 256×256 product table ``MUL_TABLE`` (64 KiB, built from them
at import): scaling bytes by ``c`` is one gather, ``MUL_TABLE[c].take``.

>>> gf_mul_bytes(0x57, np.array([0x83, 0, 1], dtype=np.uint8)).tolist()
[193, 0, 87]
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "GF_POLY", "EXP_TABLE", "LOG_TABLE", "MUL_TABLE",
    "gf_add", "gf_mul", "gf_div", "gf_inv", "gf_pow",
    "gf_mul_bytes", "gf_matmul", "gf_mat_inv",
]

GF_POLY = 0x11B
_ORDER = 255


def _build_tables():
    exp = np.zeros(512, dtype=np.uint8)
    log = np.zeros(256, dtype=np.int32)
    x = 1
    for i in range(_ORDER):
        exp[i] = x
        log[x] = i
        # multiply by the generator 3 = x * 2 + x, reducing mod GF_POLY
        doubled = x << 1
        if doubled & 0x100:
            doubled ^= GF_POLY
        x = doubled ^ x
    # duplicate so exp[log a + log b] never needs an explicit mod
    exp[_ORDER:2 * _ORDER] = exp[:_ORDER]
    exp[2 * _ORDER:] = exp[: 512 - 2 * _ORDER]
    return exp, log


EXP_TABLE, LOG_TABLE = _build_tables()

#: MUL_TABLE[a][b] == gf_mul(a, b); row and column 0 are zero
MUL_TABLE = np.zeros((256, 256), dtype=np.uint8)
MUL_TABLE[1:, 1:] = EXP_TABLE[LOG_TABLE[1:, None] + LOG_TABLE[None, 1:]]


def gf_add(a, b):
    """Addition in GF(2^8) is XOR (works on scalars and arrays)."""
    return np.bitwise_xor(a, b)


def gf_mul(a: int, b: int) -> int:
    """Scalar product of two field elements."""
    if a == 0 or b == 0:
        return 0
    return int(EXP_TABLE[int(LOG_TABLE[a]) + int(LOG_TABLE[b])])


def gf_inv(a: int) -> int:
    """Multiplicative inverse; raises on zero."""
    if a == 0:
        raise ZeroDivisionError("0 has no inverse in GF(256)")
    return int(EXP_TABLE[_ORDER - int(LOG_TABLE[a])])


def gf_div(a: int, b: int) -> int:
    """Scalar quotient a / b."""
    if b == 0:
        raise ZeroDivisionError("division by zero in GF(256)")
    if a == 0:
        return 0
    return int(EXP_TABLE[(int(LOG_TABLE[a]) - int(LOG_TABLE[b])) % _ORDER])


def gf_pow(a: int, n: int) -> int:
    """Scalar power a**n (n may be any integer; 0**0 == 1)."""
    if n == 0:
        return 1
    if a == 0:
        return 0
    return int(EXP_TABLE[(int(LOG_TABLE[a]) * n) % _ORDER])


def gf_mul_bytes(c: int, data: np.ndarray) -> np.ndarray:
    """Multiply every byte of ``data`` by the constant ``c`` (one gather)."""
    return MUL_TABLE[c].take(np.asarray(data, dtype=np.uint8))


def gf_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product over GF(2^8).

    ``a`` is (m, k), ``b`` is (k, n); returns (m, n).  Vectorized by rows:
    each output row XOR-accumulates, in place, the rows of ``b`` gathered
    through ``MUL_TABLE`` (a coefficient of 1 is a plain XOR).
    """
    a = np.asarray(a, dtype=np.uint8)
    b = np.asarray(b, dtype=np.uint8)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ValueError(f"shape mismatch {a.shape} x {b.shape}")
    out = np.zeros((a.shape[0], b.shape[1]), dtype=np.uint8)
    for acc, coeffs in zip(out, a.tolist()):
        for row, coeff in zip(b, coeffs):
            if coeff == 1:
                acc ^= row
            elif coeff:
                acc ^= MUL_TABLE[coeff].take(row)
    return out


def gf_mat_inv(mat: np.ndarray) -> np.ndarray:
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
        aug[col] = gf_mul_bytes(inv_p, aug[col])
        for r in range(n):
            if r != col and aug[r, col]:
                aug[r] ^= gf_mul_bytes(int(aug[r, col]), aug[col])
    return aug[:, n:].copy()
