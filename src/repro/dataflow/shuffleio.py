"""The map side of a shuffle: one map-task function for every executor.

:func:`run_map_task` computes one map split and returns a
:class:`MapTaskOutput` record.  ``LocalExecutor._write_shuffle``, the
pool worker's ``"map"`` task (``mp._run_task``) and
``SimEngine._task_proc`` all call it at the task's compute site and keep
only their own store step: the local executor merges the buckets per
reducer and seals them, a pool worker spills them to a file, and the
simulated engine seals them per map output.  Inside it:

1. :func:`map_side_items` produces the records bound for the wire and
   the pre-combine record count.  When the shuffle combines map-side and
   the map dataset's fused chain ends in an element segment, the records
   never materialize: the chain is compiled with a combine sink
   (:func:`~repro.dataflow.fusion.fold_chain`) that folds each one
   straight into the combined dict.  Otherwise — naming the fallback by
   a reason from :data:`SINK_FALLBACKS`, which the caller counts — it
   lists the partition and folds it with :func:`_combine`.
   ``ExecOptions(fusion=False)`` is that reference path, not a fallback.
2. :func:`write_buckets` partitions and scatters them, vectorized: one
   :meth:`~repro.dataflow.partitioner.Partitioner.partition_many` pass
   and one zip-append sweep, over the *combined* items when the shuffle
   combines.  It never combines.  Buckets are byte-identical to the
   per-record reference :func:`_write_buckets_scalar`, which no executor
   calls: it survives as the tests' oracle.

Sizing is the caller's step, :meth:`MapTaskOutput.size`, against the
:class:`~repro.dataflow.costmodel.SizeEstimator` that owns the shuffle:
the first map output sized fixes the per-record size from its bounded
sample.  The local and pool executors size on the driver in split
order, so their :class:`~repro.dataflow.local.ShuffleMetrics` are equal;
the simulated engine sizes a map output when its task finishes compute.
"""

from __future__ import annotations

import os
import pickle
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..common.errors import BucketFileError
from ..obs.metrics import get_registry
from ..storage import integrity
from . import fusion
from .costmodel import CostModel, SizeEstimator
from .plan import MappedDataset, ShuffleDependency, TaskRuntime

__all__ = ["MapTaskOutput", "run_map_task", "count_sink_fallback",
           "SINK_FALLBACKS", "seal_buckets", "open_bucket",
           "write_bucket_file", "read_bucket_file"]

#: Why a map task of a map-side-combining shuffle could not fold its
#: records into a combine sink: the map dataset is not a
#: ``MappedDataset``, its own op is an iterator step, it is cached, or
#: its records were precomputed on the process pool.
SINK_FALLBACKS = ("not_mapped", "iter_tail", "cached", "prefetched")


def _scatter(items: Sequence, part_ids: np.ndarray,
             n_out: int) -> List[List]:
    """Distribute ``items`` into ``n_out`` buckets by ``part_ids``.

    Stable: each bucket preserves the original relative order of its
    items.  A plain zip-append over ``part_ids.tolist()`` measures ~2x
    faster than a stable argsort + fancy-index gather here, because the
    items are arbitrary Python objects either way — the win of
    ``partition_many`` is batching the per-key hashing/bisection, and the
    scatter itself is cheapest as a tight Python loop.
    """
    buckets: List[List] = [[] for _ in range(n_out)]
    for item, pid in zip(items, part_ids.tolist()):
        buckets[pid].append(item)
    return buckets


def _combine(dep: ShuffleDependency, records: Sequence) -> List[Tuple]:
    """Map-side combine into first-occurrence key order (dict semantics)."""
    agg = dep.aggregator
    merged: Dict[Any, Any] = {}
    create, merge_value = agg.create, agg.merge_value
    get = merged.get
    sentinel = object()
    for k, v in records:
        prev = get(k, sentinel)
        merged[k] = create(v) if prev is sentinel else merge_value(prev, v)
    return list(merged.items())


def _sink_fallback(ds, prefetched: bool) -> Optional[str]:
    """The :data:`SINK_FALLBACKS` reason ``ds`` cannot fold, or None."""
    if prefetched:
        return "prefetched"
    if not isinstance(ds, MappedDataset):
        return "not_mapped"
    if ds.cached:
        return "cached"
    if ds._fused_step()[0] not in fusion.ELEMENT_KINDS:
        return "iter_tail"
    return None


def map_side_items(dep: ShuffleDependency, split: int,
                   runtime: TaskRuntime, records: Optional[List] = None,
                   ) -> Tuple[List, int, Optional[str]]:
    """``(items, records_in, fallback)`` of map split ``split``: the
    combined ``(key, combiner)`` pairs when ``dep`` combines map-side
    (else the records), the pre-combine record count and the
    :data:`SINK_FALLBACKS` reason the sink did not run, if one applies."""
    ds = dep.parent
    combine = dep.map_side_combine and dep.aggregator is not None
    fallback = None
    if combine and ds.ctx.options.fusion:
        fallback = _sink_fallback(ds, records is not None)
        if fallback is None:
            items, n_folded = ds.fold(split, runtime, dep.aggregator)
            return items, n_folded, None
    if records is None:
        records = list(ds.iterate(split, runtime))
    if combine:
        return _combine(dep, records), len(records), fallback
    return records, len(records), None


def count_sink_fallback(reason: str, n: int = 1) -> None:
    """Count ``n`` combine-sink fallbacks in the global registry, as
    ``dataflow.combine_sink_fallbacks.<reason>`` (no-op when off)."""
    reg = get_registry()
    if reg is not None:
        reg.counter(f"dataflow.combine_sink_fallbacks.{reason}").inc(n)


def write_buckets(dep: ShuffleDependency, items: Sequence) -> List[List]:
    """Partition ``items`` — :func:`map_side_items`' output, already
    combined when ``dep`` combines map-side — into reduce buckets."""
    n_out = dep.partitioner.n_partitions
    if not items:
        return [[] for _ in range(n_out)]
    part_ids = dep.partitioner.partition_many([rec[0] for rec in items])
    return _scatter(items, part_ids, n_out)


@dataclass
class MapTaskOutput:
    """What one map task wrote to its shuffle.

    ``buckets`` are the reduce buckets (None once a pool worker has
    spilled them), ``records_in`` the pre-combine record count the cost
    model charges, ``written`` the records after map-side combining and
    ``fallback`` the :data:`SINK_FALLBACKS` reason the task could not fold
    through the compiled sink (None when it did, or nothing combines).
    ``sample`` is the cost model's bounded sample of the written records
    and ``lengths`` the bucket lengths: all :meth:`size` needs to fill in
    ``bucket_bytes``.
    """

    buckets: Optional[List[List]]
    records_in: int
    written: int
    fallback: Optional[str]
    sample: List
    lengths: List[int]
    bucket_bytes: Optional[List[float]] = None

    def size(self, shuffle_id: int, estimator: SizeEstimator) -> List[float]:
        """Estimate each bucket's serialized bytes, under the per-record
        size the shuffle's first sized map output fixed in ``estimator``
        (one pickled sample per shuffle, not per bucket)."""
        key = ("shuffle", shuffle_id)
        self.bucket_bytes = [
            estimator.estimate_count(key, n, self.sample)
            for n in self.lengths]
        return self.bucket_bytes


def run_map_task(dep: ShuffleDependency, split: int, runtime: TaskRuntime,
                 cost: CostModel, records: Optional[List] = None,
                 ) -> MapTaskOutput:
    """Compute map split ``split`` of ``dep`` and partition its shuffle
    write.  ``records`` are the split's records when already computed (a
    pool prefetch).  The caller counts the record's ``fallback``, sizes
    it with :meth:`MapTaskOutput.size` and stores its buckets."""
    items, records_in, fallback = map_side_items(dep, split, runtime,
                                                 records)
    buckets = write_buckets(dep, items)
    return MapTaskOutput(
        buckets, records_in, len(items), fallback,
        [items[i] for i in cost.sample_indices(len(items))],
        [len(b) for b in buckets])


# -- stored buckets (in-process executors) -----------------------------------
#
# ``LocalExecutor`` and ``SimEngine`` keep map output in memory.  Sealed,
# every fetch hands the reducer fresh records, so a ``merge_combiners``
# that extends its first argument in place cannot rewrite the shuffle.


def seal_buckets(buckets: List[List], checksums: bool,
                 ) -> Tuple[List, Optional[List[integrity.Seal]]]:
    """Stored form of one map output's buckets: ``(blobs, seals)`` of
    :func:`~repro.storage.integrity.seal_object` when ``checksums`` is
    set (the spill-file bytes), else ``(buckets, None)``."""
    if not checksums:
        return buckets, None
    sealed = [integrity.seal_object(b) for b in buckets]
    return [blob for blob, _ in sealed], [s for _, s in sealed]


def open_bucket(stored: List, seals: Optional[List[integrity.Seal]],
                reduce_id: int, *, layer: str, path: str) -> List:
    """Records of one bucket stored by :func:`seal_buckets`: verified and
    freshly unpickled when sealed (a corrupt blob raises
    :class:`~repro.common.errors.ChecksumError`), else the stored list."""
    if seals is None:
        return stored[reduce_id]
    return integrity.verify_object(stored[reduce_id], seals[reduce_id],
                                   layer=layer, path=path)


# -- shuffle bucket files (multi-process backend) ----------------------------
#
# Pool workers write their map output to per-(shuffle, map-split) files
# and stream back only *references* (path + per-bucket offsets); reduce
# tasks — on any worker — seek straight to their bucket.  Files survive
# the writing worker's death, so a completed map task never reruns just
# because its worker crashed.


def write_bucket_file(path: str, buckets: List[List],
                      checksums: bool) -> List[Tuple]:
    """Write ``buckets`` back-to-back to ``path``.

    Returns one ``(offset, length)`` pair — ``(offset, length, Seal)``
    when ``checksums`` is set (the context's ``ExecOptions.checksums``) —
    per bucket so a reader can fetch a single reduce partition without
    scanning the file.  A sealed bucket is the
    :func:`~repro.storage.integrity.seal_object` blob, the same bytes a
    sealed in-process map output holds; its seal turns silent bit-rot in
    a spill file into a typed, recoverable ChecksumError at read time.
    """
    offsets: List[Tuple] = []
    with open(path, "wb") as f:
        for bucket in buckets:
            if checksums:
                blob, s = integrity.seal_object(bucket)
                offsets.append((f.tell(), len(blob), s))
            else:
                blob = pickle.dumps(bucket, protocol=4)
                offsets.append((f.tell(), len(blob)))
            f.write(blob)
    return offsets


def read_bucket_file(path: str, offsets: Sequence[Tuple],
                     reduce_id: int) -> List:
    """Read one reduce bucket back from a bucket file.

    The requested ``(offset, length)`` window is validated against the
    actual file size before deserializing, so a truncated or torn spill
    file raises a typed :class:`~repro.common.errors.BucketFileError`
    with full provenance instead of an opaque ``UnpicklingError``; when
    the offset entry carries a Seal (checksumming on at write time), the
    blob is verified and corruption raises
    :class:`~repro.common.errors.ChecksumError` naming the file and the
    byte offset of the corrupt chunk.
    """
    if not 0 <= reduce_id < len(offsets):
        raise BucketFileError(
            f"bucket file {path} has {len(offsets)} buckets, "
            f"reduce {reduce_id} requested",
            path=path, reduce_id=reduce_id, offset=-1, length=-1,
            file_size=-1)
    entry = offsets[reduce_id]
    off, length = entry[0], entry[1]
    with open(path, "rb") as f:
        file_size = os.fstat(f.fileno()).st_size
        if off < 0 or length < 0 or off + length > file_size:
            raise BucketFileError(path=path, reduce_id=reduce_id,
                                  offset=off, length=length,
                                  file_size=file_size)
        f.seek(off)
        blob = f.read(length)
    if len(blob) != length:
        raise BucketFileError(path=path, reduce_id=reduce_id, offset=off,
                              length=length, file_size=file_size)
    if len(entry) > 2:
        return integrity.verify_object(blob, entry[2], layer="shuffle",
                                       path=path, offset_base=off)
    return pickle.loads(blob)


def _write_buckets_scalar(dep: ShuffleDependency, records: Sequence,
                          cost: CostModel,
                          ) -> Tuple[List[List], int, List[float]]:
    """The per-record reference path, combining raw records itself: the
    tests' oracle for :func:`run_map_task`."""
    n_out = dep.partitioner.n_partitions
    buckets: List[List] = [[] for _ in range(n_out)]
    if dep.map_side_combine and dep.aggregator is not None:
        agg = dep.aggregator
        combined: List[Dict[Any, Any]] = [dict() for _ in range(n_out)]
        for k, v in records:
            b = combined[dep.partitioner.partition(k)]
            b[k] = agg.merge_value(b[k], v) if k in b else agg.create(v)
        written = 0
        for rid, d in enumerate(combined):
            buckets[rid].extend(d.items())
            written += len(d)
    else:
        for rec in records:
            buckets[dep.partitioner.partition(rec[0])].append(rec)
        written = len(records)
    bucket_bytes = [cost.estimate_bytes(b) for b in buckets]
    return buckets, written, bucket_bytes
