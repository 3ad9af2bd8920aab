"""Per-context execution options: one frozen ExecOptions per context.

Two contexts with different options must not leak into each other, even
when they share one warm worker pool: results stay byte-identical, each
context's spill files follow its own checksum option, and every switch
between contexts re-primes the workers.  The simulated engine honours
the options of the dataset it runs (fusion counters, map-output seals).
"""

import dataclasses
import operator
import pickle

import pytest

from repro.cluster import make_cluster
from repro.dataflow import (
    DataflowContext,
    ExecOptions,
    ProcessPoolBackend,
    SimEngine,
    reset_segment_cache,
    segment_cache_shapes,
)
from repro.simcore import Simulator

PLAIN = ExecOptions(fusion=False, checksums=False)


def wordcount(ctx):
    words = [f"w{i % 23}" for i in range(300)]
    return (ctx.parallelize(words, 5)
            .map(lambda w: w.upper()).filter(lambda w: w != "W7")
            .map(lambda w: (w, 1))
            .reduce_by_key(operator.add, 4))


def offset_widths(ctx):
    """Entry widths of every spill-file offset table the context wrote."""
    return {len(e) for refs in ctx.pooled_executor._shuffle_refs.values()
            for _path, offs in refs for e in offs}


def test_options_are_frozen_and_hashable():
    opts = ExecOptions()
    assert (opts.fusion, opts.columnar, opts.checksums, opts.adaptive) == \
        (True, True, True, None)
    with pytest.raises(dataclasses.FrozenInstanceError):
        opts.fusion = False
    assert hash(opts) == hash(ExecOptions())
    assert len({opts, ExecOptions(), PLAIN}) == 2
    from repro.sql import AdaptiveConfig
    aqe = ExecOptions(adaptive=AdaptiveConfig(broadcast_rows=10))
    assert hash(aqe) == hash(dataclasses.replace(
        ExecOptions(), adaptive=AdaptiveConfig(broadcast_rows=10)))
    assert DataflowContext().options == ExecOptions()


def test_contexts_sharing_a_pool_stay_isolated():
    backend = ProcessPoolBackend(n_workers=2)
    ctx_a = DataflowContext(default_parallelism=4, options=PLAIN)
    ctx_b = DataflowContext(default_parallelism=4)
    for ctx in (ctx_a, ctx_b):
        ctx.attach_pool(backend)
        ctx.backend = "pool"
    try:
        results, epochs = [], []
        for ctx in (ctx_a, ctx_b, ctx_a):
            ctx.pooled_executor.clear()     # fresh map output every run
            results.append(pickle.dumps(wordcount(ctx).collect()))
            epochs.append(backend._epoch)
            assert offset_widths(ctx) == \
                ({3} if ctx.options.checksums else {2})
        assert results[0] == results[1] == results[2]
        assert epochs[0] < epochs[1] < epochs[2]     # every switch primes
        # same context, same plan again: the pool stays primed
        wordcount_a = wordcount(ctx_a)
        wordcount_a.collect()
        epoch = backend._epoch
        wordcount_a.collect()
        assert backend._epoch == epoch
        # a new options value on the same context re-primes the workers
        ctx_a.options = dataclasses.replace(ctx_a.options, checksums=True)
        assert pickle.dumps(wordcount_a.collect()) == results[0]
        assert backend._epoch > epoch
        ctx_a.pooled_executor.clear()
        wordcount_a.collect()
        assert offset_widths(ctx_a) == {3}
    finally:
        backend.shutdown()


def _sim_wordcount(options):
    sim = Simulator()
    engine = SimEngine(make_cluster(sim, 2, 3))
    ctx = DataflowContext(default_parallelism=6, options=options)
    res = sim.run_until_done(engine.collect(wordcount(ctx)))
    return res, engine


def test_simengine_follows_context_options():
    reset_segment_cache()
    off, off_engine = _sim_wordcount(PLAIN)
    assert segment_cache_shapes() == ()         # ran the per-op path
    on, on_engine = _sim_wordcount(ExecOptions())
    assert segment_cache_shapes()
    assert pickle.dumps(on.value) == pickle.dumps(off.value)
    assert on.metrics.fused_segments > 0
    assert off.metrics.fused_segments == 0
    outputs = {
        name: [mo for per_shuffle in eng._map_outputs.values()
               for mo in per_shuffle.values()]
        for name, eng in (("on", on_engine), ("off", off_engine))}
    assert outputs["on"] and outputs["off"]
    assert all(mo.seals is not None for mo in outputs["on"])
    assert all(mo.seals is None for mo in outputs["off"])
