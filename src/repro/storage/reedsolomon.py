"""Systematic Reed–Solomon erasure coding, RS(k, m), over GF(2^8).

Splits a data block into ``k`` fragments and computes ``m`` parity
fragments such that *any* ``k`` of the ``k+m`` survive-and-decode.  The
code matrix is a systematic Cauchy-style matrix: the top k×k block is the
identity (data fragments are stored verbatim — systematic codes are what
HDFS-EC/Ceph use), and the parity rows come from a Cauchy matrix, which
guarantees every k×k submatrix of the full matrix is invertible.

Supports ``k + m <= 256``.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

import numpy as np

from ..common.errors import InsufficientReplicasError
from .gf256 import gf_inv, gf_mat_inv, gf_matmul

__all__ = ["RSCode"]


def _cauchy_parity(k: int, m: int) -> np.ndarray:
    """An m×k Cauchy matrix over GF(256): C[i][j] = 1 / (x_i + y_j).

    With x_i = k + i and y_j = j all elements x_i + y_j (XOR) are nonzero
    for k + m <= 256, and every square submatrix of a Cauchy matrix is
    invertible — exactly the property systematic MDS codes need.
    """
    out = np.zeros((m, k), dtype=np.uint8)
    for i in range(m):
        for j in range(k):
            out[i, j] = gf_inv((k + i) ^ j)
    return out


class RSCode:
    """A systematic RS(k, m) codec for byte blocks.

    >>> code = RSCode(4, 2)
    >>> frags = code.encode(b"hello world!")
    >>> code.decode({0: frags[0], 2: frags[2], 4: frags[4], 5: frags[5]},
    ...             orig_len=12)
    b'hello world!'
    """

    def __init__(self, k: int, m: int) -> None:
        if k < 1 or m < 0 or k + m > 256:
            raise ValueError("need 1 <= k, 0 <= m, k + m <= 256")
        self.k = k
        self.m = m
        self.n = k + m
        self._parity = _cauchy_parity(k, m) if m else np.zeros((0, k), np.uint8)
        self._matrix = np.concatenate(
            [np.eye(k, dtype=np.uint8), self._parity], axis=0)
        self._inverses: Dict[Tuple[int, ...], np.ndarray] = {}

    @property
    def storage_overhead(self) -> float:
        """Stored bytes per data byte: (k+m)/k."""
        return self.n / self.k

    def fragment_size(self, orig_len: int) -> int:
        """Bytes per fragment for a block of ``orig_len`` bytes."""
        return (orig_len + self.k - 1) // self.k if orig_len else 0

    def encode(self, data: bytes) -> List[bytes]:
        """Split + encode ``data`` into ``k+m`` equal-size fragments.

        Fragments ``0..k-1`` are the (zero-padded) data shards; ``k..n-1``
        are parity.
        """
        data = bytes(data)
        frag = self.fragment_size(len(data))
        if frag == 0:
            return [b""] * self.n
        padded = np.zeros(self.k * frag, dtype=np.uint8)
        padded[: len(data)] = np.frombuffer(data, dtype=np.uint8)
        shards = padded.reshape(self.k, frag)
        if self.m:
            parity = gf_matmul(self._parity, shards)
            all_shards = np.concatenate([shards, parity], axis=0)
        else:
            all_shards = shards
        return [s.tobytes() for s in all_shards]

    def decode(self, fragments: Dict[int, bytes], orig_len: int) -> bytes:
        """Rebuild the original block from any ``k`` fragments.

        ``fragments`` maps fragment index (in ``[0, n)``) → bytes and the
        ``k`` lowest are used: surviving data shards are copied verbatim
        and only the lost data rows are computed, ``inv(sub)[lost] · rows``.
        Raises :class:`InsufficientReplicasError` with fewer than ``k``.
        """
        self._check_indices(fragments)
        if orig_len == 0:
            return b""
        idxs, rows = self._survivors(fragments, self.fragment_size(orig_len))
        lost = [i for i in range(self.k) if i not in idxs]
        if lost:
            present = idxs[: self.k - len(lost)]   # sorted: data come first
            data = np.empty_like(rows)
            data[present] = rows[: len(present)]
            data[lost] = gf_matmul(self._inverse(idxs)[lost], rows)
            rows = data
        return rows.tobytes()[:orig_len]

    def reconstruct_fragment(self, fragments: Dict[int, bytes],
                             missing: int, orig_len: int) -> bytes:
        """Rebuild a single lost fragment from any ``k`` survivors.

        This is the repair path: the 1×k row ``matrix[missing] · inv(sub)``
        is composed once (exact: GF(2^8) is associative) and applied to
        the ``k`` survivors, or a survivor is returned if it is ``missing``
        itself.  Network cost (k fragment reads) is charged by the
        storage layer, not here.
        """
        self._check_indices([missing, *fragments])
        frag = self.fragment_size(orig_len)
        if frag == 0:
            return b""
        idxs, rows = self._survivors(fragments, frag)
        if missing in idxs:
            return rows[idxs.index(missing)].tobytes()
        row = gf_matmul(self._matrix[[missing]], self._inverse(idxs))
        return gf_matmul(row, rows)[0].tobytes()

    def _check_indices(self, idxs: Iterable[int]) -> None:
        bad = sorted(i for i in idxs if not 0 <= i < self.n)
        if bad:
            raise ValueError(f"fragment index {bad} outside [0, {self.n})")

    def _survivors(self, fragments: Dict[int, bytes], frag: int):
        """The ``k`` lowest fragment indices and their bytes as rows."""
        if len(fragments) < self.k:
            raise InsufficientReplicasError(
                f"need {self.k} fragments, have {len(fragments)}")
        idxs = sorted(fragments)[: self.k]
        rows = np.stack([
            np.frombuffer(fragments[i], dtype=np.uint8) for i in idxs])
        if rows.shape[1] != frag:
            raise ValueError(
                f"fragment size {rows.shape[1]} != expected {frag}")
        return idxs, rows

    def _inverse(self, idxs: List[int]) -> np.ndarray:
        """``inv(matrix[idxs])``, cached per survivor set (at most C(n, k))."""
        key = tuple(idxs)
        if key not in self._inverses:
            self._inverses[key] = gf_mat_inv(self._matrix[idxs])
        return self._inverses[key]
