"""order_by tie-breaking is deterministic across executors and planners.

Sort keys with heavy duplicates used to be tie-broken by shuffle arrival
order, which is an accident of the executor (in-process vs pool) and of
the plan shape (full sort vs adaptive top-k).  The audit fixed the
lowering to tie-break on row *content* (``_sort_token``), making sorted
output a pure function of the result set.  These tests pin that:

* a pure-Python oracle predicts the exact output;
* row vs columnar vs top-k vs pool all agree byte-for-byte;
* adaptive on/off cannot perturb ordered results.
"""

import random

import pytest

from repro.dataflow import DataflowContext, ExecOptions, ProcessPoolBackend
from repro.sql import AdaptiveConfig, DataFrame
from repro.sql.frame import _sort_token

SEED = 1234


def tie_rows(n=160, seed=SEED):
    rng = random.Random(seed)
    # only 4 distinct sort keys: ties everywhere
    return [{"g": rng.randrange(4), "v": rng.randrange(30), "tag": rng.choice("abc")}
            for _ in range(n)]


def oracle(rows, key, ascending, limit=None):
    out = sorted(rows, key=lambda r: (r[key], _sort_token(r, ["g", "v", "tag"])),
                 reverse=not ascending)
    return out if limit is None else out[:limit]


@pytest.fixture(scope="module")
def pool():
    backend = ProcessPoolBackend(n_workers=2)
    yield backend
    backend.shutdown()


def _collect(build, columnar, adaptive, pool=None):
    options = ExecOptions(columnar=columnar,
                          adaptive=AdaptiveConfig() if adaptive else None)
    ctx = DataflowContext(default_parallelism=5, options=options)
    if pool is not None:
        ctx.attach_pool(pool)
        ctx.backend = "pool"
    return build(ctx).collect()


@pytest.mark.parametrize("ascending", [True, False])
def test_full_sort_matches_oracle_everywhere(ascending, pool):
    rows = tie_rows()
    expect = list(map(repr, oracle(rows, "g", ascending)))

    def build(ctx):
        return DataFrame.from_rows(ctx, rows, name="t").order_by(
            "g", ascending=ascending)
    for columnar in (False, True):
        for aqe in (False, True):
            got = _collect(build, columnar=columnar, adaptive=aqe)
            assert list(map(repr, got)) == expect, \
                f"columnar={columnar} adaptive={aqe}"
    pooled = _collect(build, pool=pool, columnar=True, adaptive=True)
    assert list(map(repr, pooled)) == expect


@pytest.mark.parametrize("limit", [1, 7, 40])
def test_topk_equals_full_sort_prefix(limit, pool):
    # adaptive rewrites order_by+limit into a two-level heap top-k; the
    # heap must produce exactly sorted(...)[:n], ties included
    rows = tie_rows(seed=SEED + 1)
    expect = list(map(repr, oracle(rows, "g", False, limit)))

    def build(ctx):
        return (DataFrame.from_rows(ctx, rows, name="t")
                .order_by("g", ascending=False).limit(limit))
    for columnar in (False, True):
        for aqe in (False, True):
            got = _collect(build, columnar=columnar, adaptive=aqe)
            assert list(map(repr, got)) == expect
    pooled = _collect(build, pool=pool, columnar=True, adaptive=True)
    assert list(map(repr, pooled)) == expect


def test_sort_token_is_content_only():
    # same content, different object identity: identical token
    a = {"g": 1, "v": 2, "tag": "x"}
    b = {"g": 1, "v": 2, "tag": "x"}
    assert _sort_token(a, ["g", "v", "tag"]) == _sort_token(b, ["g", "v", "tag"])
    # differing content anywhere in the row breaks the tie
    c = {"g": 1, "v": 2, "tag": "y"}
    assert _sort_token(a, ["g", "v", "tag"]) != _sort_token(c, ["g", "v", "tag"])
