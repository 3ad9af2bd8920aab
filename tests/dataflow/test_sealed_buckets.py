"""One sealed-bucket format: in-process map outputs and pool spill files."""

from operator import add

import pytest

from repro.cluster import make_cluster
from repro.common.errors import ChecksumError
from repro.dataflow import DataflowContext, ExecOptions, SimEngine
from repro.dataflow.shuffleio import read_bucket_file, write_bucket_file
from repro.simcore import Simulator
from repro.storage import integrity


def test_multi_chunk_spill_names_the_corrupt_chunk(tmp_path):
    path = str(tmp_path / "s0-m0.buckets")
    small = [("a", 1)]
    big = [(f"k{i:06d}", f"{i:08d}" * 5) for i in range(3000)]
    offsets = write_bucket_file(path, [small, big], checksums=True)
    off, length, seal = offsets[1]
    assert length > integrity.CHUNK_SIZE and len(seal.sums) > 1
    with open(path, "r+b") as f:                      # rot chunk 2
        data = f.read()
        f.seek(0)
        f.write(integrity.flip_byte(data, off + integrity.CHUNK_SIZE + 7))
    assert read_bucket_file(path, offsets, 0) == small
    with pytest.raises(ChecksumError) as ei:
        read_bucket_file(path, offsets, 1)
    err = ei.value
    assert (err.layer, err.path) == ("shuffle", path)
    assert err.offset == off + integrity.CHUNK_SIZE


def _sim_map_outputs(options):
    sim = Simulator()
    eng = SimEngine(make_cluster(sim, 2, 2))
    ctx = DataflowContext(default_parallelism=4, options=options)
    ds = (ctx.parallelize([f"w{i % 17}" for i in range(400)], 4)
          .map(lambda w: (w, 1)).reduce_by_key(add, 3))
    res = sim.run_until_done(eng.collect(ds))
    (outs,) = eng._map_outputs.values()
    return sorted(res.value), [outs[m] for m in sorted(outs)]


def test_sealed_map_output_is_the_spill_file_format(tmp_path):
    value, outputs = _sim_map_outputs(ExecOptions())
    plain_value, plain = _sim_map_outputs(ExecOptions(checksums=False))
    assert value == plain_value
    for m, (mo, ref) in enumerate(zip(outputs, plain)):
        assert ref.seals is None and all(isinstance(b, list)
                                         for b in ref.buckets)
        path = str(tmp_path / f"m{m}.buckets")
        offsets = write_bucket_file(path, ref.buckets, checksums=True)
        with open(path, "rb") as f:
            spilled = f.read()
        for r, (off, length, seal) in enumerate(offsets):
            assert mo.buckets[r] == spilled[off:off + length]
            assert mo.seals[r] == seal
            assert read_bucket_file(path, offsets, r) == ref.buckets[r]
