"""Checksummed data plane primitives (crc32c-style chunk checksums).

Silent corruption — bit-rot on a spilled shuffle bucket, a flipped byte
in a DFS replica, a bad EC fragment — is the one fault class the loud
failure machinery (crashes, losses, stalls) cannot see: the bytes are
*there*, they are just wrong, and without end-to-end checksums they flow
straight into results.  This module is the shared primitive layer:

* :func:`seal` computes a :class:`Seal` — per-chunk CRC32 checksums plus
  the payload length — over any ``bytes`` payload;
* :func:`verify` re-checksums a payload against its seal and raises
  :class:`~repro.common.errors.ChecksumError` with layer/path/offset
  provenance on the first mismatching chunk;
* :func:`seal_object` / :func:`verify_object` are the one stored-object
  format: a protocol-4 pickle blob plus its :class:`Seal`.  Engine map
  output buckets, pool spill-file buckets and checkpoint snapshots are
  all stored this way, so a bucket sealed in-process and one read back
  from a spill file are byte-compatible, and every check is a
  :func:`verify` (audits need only the CRC, fetches also unpickle);
* :func:`flip_byte` is the canonical corruption injector — the chaos
  ``data_corrupt`` adapters all flip bytes through it, so detection
  guarantees are uniform across layers.

CRC32 detects every single-bit and single-byte error in a chunk (any
burst error up to 32 bits), which is exactly the silent-corruption model
the chaos harness injects; chunking bounds the provenance error to
``chunk_size`` bytes and mirrors how real filesystems (HDFS, ext4
metadata) checksum per block, not per file.
"""

from __future__ import annotations

import pickle
import zlib
from dataclasses import dataclass
from typing import Tuple

from ..common.errors import ChecksumError

__all__ = ["CHUNK_SIZE", "Seal", "chunk_checksums", "seal", "verify",
           "seal_object", "verify_object", "flip_byte", "ChecksumError"]

#: Default checksum chunk: 64 KiB, the classic HDFS ``io.bytes.per.checksum``
#: scaled up to keep seal tuples small for multi-MB blocks.
CHUNK_SIZE = 64 * 1024


@dataclass(frozen=True)
class Seal:
    """Checksum metadata for one stored payload.

    ``sums`` holds one CRC32 per ``chunk_size`` chunk (empty for a
    zero-length payload); ``length`` pins the payload size so truncation
    and extension are detected even when every surviving chunk matches.
    """

    length: int
    chunk_size: int
    sums: Tuple[int, ...]


def chunk_checksums(data: bytes, chunk_size: int = CHUNK_SIZE) \
        -> Tuple[int, ...]:
    """CRC32 of each ``chunk_size`` chunk of ``data`` (empty for ``b""``)."""
    if chunk_size < 1:
        raise ValueError("chunk_size must be positive")
    view = memoryview(data)
    return tuple(zlib.crc32(view[i:i + chunk_size])
                 for i in range(0, len(data), chunk_size))


def seal(data: bytes, chunk_size: int = CHUNK_SIZE) -> Seal:
    """Compute the :class:`Seal` for ``data``."""
    return Seal(len(data), chunk_size, chunk_checksums(data, chunk_size))


def verify(data: bytes, s: Seal, *, layer: str = "?",
           path: str = "?", offset_base: int = 0) -> None:
    """Raise :class:`ChecksumError` unless ``data`` matches seal ``s``.

    ``offset_base`` shifts reported offsets for payloads that live at a
    nonzero position inside a larger file (spill-file bucket blobs).
    """
    if len(data) != s.length:
        raise ChecksumError(layer=layer, path=path,
                            offset=offset_base + min(len(data), s.length),
                            expected=s.length, actual=len(data))
    view = memoryview(data)
    cs = s.chunk_size
    for idx, want in enumerate(s.sums):
        got = zlib.crc32(view[idx * cs: (idx + 1) * cs])
        if got != want:
            raise ChecksumError(layer=layer, path=path,
                                offset=offset_base + idx * cs,
                                expected=want, actual=got)


def seal_object(obj, chunk_size: int = CHUNK_SIZE) -> Tuple[bytes, Seal]:
    """Pickle ``obj`` (protocol 4) and seal the pickle: ``(blob, seal)``."""
    blob = pickle.dumps(obj, protocol=4)
    return blob, seal(blob, chunk_size)


def verify_object(blob: bytes, s: Seal, *, layer: str = "?", path: str = "?",
                  offset_base: int = 0):
    """:func:`verify` a :func:`seal_object` blob, then unpickle it."""
    verify(blob, s, layer=layer, path=path, offset_base=offset_base)
    return pickle.loads(blob)


def flip_byte(data: bytes, offset: int) -> bytes:
    """Return ``data`` with the byte at ``offset`` XOR-flipped (0xFF).

    XOR with 0xFF always changes the byte, so an injected corruption is
    never a silent no-op; bytes are immutable, so callers get a fresh
    object and any aliased references to the original stay clean.
    """
    if not data:
        return data
    offset %= len(data)
    return data[:offset] + bytes([data[offset] ^ 0xFF]) + data[offset + 1:]
