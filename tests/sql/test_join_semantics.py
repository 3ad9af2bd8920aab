"""Join-semantics audit: the columnar join seam vs the row oracle.

Every divergence class found while vectorizing joins is pinned here as a
regression test: null keys, mixed-dtype keys (``1 == 1.0 == True``),
duplicate-key cross products, empty sides, left-join null extension and
dtype promotion of null-extended columns.  Randomized join queries run
in the equivalence lattice.

Contract under test:

* columnar vs row output is **byte-identical** at a fixed adaptive
  setting;
* adaptive-on vs adaptive-off is multiset-equal always, and
  byte-identical for ordered queries (``order_by``'s content tie-break);
* results are independent of ``n_partitions`` — equal keys must meet on
  one reducer no matter how the shuffle is sliced.
"""

import random

import numpy as np
import pytest

from repro.dataflow import DataflowContext, ExecOptions
from repro.sql import (
    DataFrame,
    col,
    count_,
    sum_,
)
from repro.sql.adaptive import AdaptiveConfig
from repro.sql.columnar import (
    ColumnBatch, _probe_codes, _probe_hash, factorize,
)


@pytest.fixture
def ctx():
    return DataflowContext(default_parallelism=4)


def frame(ctx, rows, name, schema):
    return DataFrame.from_rows(ctx, rows, name=name, schema=schema)


def mode_ctx(n, columnar, aqe):
    """A context running one engine x adaptive mode."""
    return DataflowContext(default_parallelism=n, options=ExecOptions(
        columnar=columnar, adaptive=AdaptiveConfig() if aqe else None))


def sweep(build, n=4, exact_modes=True):
    """Collect across engines x adaptive modes; return the row baseline.

    Byte-equality between columnar and row at each fixed adaptive
    setting; multiset equality between adaptive settings.
    """
    base = None
    for aqe in (False, True):
        per_mode = []
        for columnar in (False, True):
            per_mode.append(build(mode_ctx(n, columnar, aqe)).collect())
        a, b = map(lambda rs: list(map(repr, rs)), per_mode)
        assert a == b, f"columnar/row diverge (adaptive={aqe})"
        if base is None:
            base = per_mode[0]
        else:
            assert sorted(map(repr, per_mode[0])) == \
                sorted(map(repr, base)), "adaptive changed the result set"
    return base


# -- null keys -------------------------------------------------------------


class TestNullKeys:
    L = [{"k": None, "v": 0}, {"k": 1, "v": 1}, {"k": None, "v": 2},
         {"k": 2, "v": 3}]
    R = [{"k": None, "w": 10}, {"k": 1, "w": 11}, {"k": 2, "w": 12}]

    def test_none_keys_join_by_equality(self):
        # None == None, so null keys match each other (dict semantics on
        # both paths); the contract is engine agreement, pinned exactly
        out = sweep(lambda c: frame(c, self.L, "L", ["k", "v"])
                    .join(frame(c, self.R, "R", ["k", "w"]), on="k"))
        matched = [r for r in out if r["k"] is None]
        assert len(matched) == 2            # both null-keyed left rows
        assert all(r["w"] == 10 for r in matched)

    def test_left_join_none_keys(self):
        rows = sweep(lambda c: frame(c, self.L, "L", ["k", "v"])
                     .join(frame(c, self.R, "R", ["k", "w"]), on="k",
                           how="left"))
        assert len(rows) == 4               # every left row survives

    def test_null_only_side(self):
        L = [{"k": None, "v": i} for i in range(5)]
        R = [{"k": i, "w": i} for i in range(3)]
        inner = sweep(lambda c: frame(c, L, "L", ["k", "v"])
                      .join(frame(c, R, "R", ["k", "w"]), on="k"))
        assert inner == []
        left = sweep(lambda c: frame(c, L, "L", ["k", "v"])
                     .join(frame(c, R, "R", ["k", "w"]), on="k", how="left"))
        assert len(left) == 5
        assert all(r["w"] is None for r in left)


# -- mixed-dtype keys ------------------------------------------------------


class TestMixedDtypeKeys:
    def test_numeric_equality_matches(self):
        # 1 == 1.0 == True under Python equality; the partitioner must
        # agree (stable_hash canonicalizes numerics) or matches would
        # depend on accidental hash collisions mod n_partitions
        L = [{"k": 1, "v": 0}, {"k": 1.0, "v": 1}, {"k": True, "v": 2}]
        R = [{"k": 1.0, "w": 7}]
        out = sweep(lambda c: frame(c, L, "L", ["k", "v"])
                    .join(frame(c, R, "R", ["k", "w"]), on="k"))
        assert len(out) == 3
        assert [r["v"] for r in out] == [0, 1, 2]

    def test_string_never_matches_number(self):
        L = [{"k": "1", "v": 0}, {"k": 1, "v": 1}]
        R = [{"k": 1, "w": 5}]
        out = sweep(lambda c: frame(c, L, "L", ["k", "v"])
                    .join(frame(c, R, "R", ["k", "w"]), on="k"))
        assert [r["v"] for r in out] == [1]

    @pytest.mark.parametrize("n", [1, 3, 7])
    def test_results_independent_of_n_partitions(self, n):
        rng = random.Random(11)
        pool = [None, 1, 1.0, True, 0, False, "1", 2, "x", 3.5, -1]
        L = [{"k": rng.choice(pool), "v": i} for i in range(80)]
        R = [{"k": rng.choice(pool), "w": i} for i in range(40)]
        out = sweep(lambda c: frame(c, L, "L", ["k", "v"])
                    .join(frame(c, R, "R", ["k", "w"]), on="k"), n=n)
        if not hasattr(type(self), "_pinned"):
            type(self)._pinned = sorted(map(repr, out))
        assert sorted(map(repr, out)) == type(self)._pinned


# -- duplicate keys --------------------------------------------------------


class TestDuplicateKeys:
    def test_cross_product_multiplicity(self):
        L = [{"k": "a", "v": i} for i in range(3)] + [{"k": "b", "v": 9}]
        R = [{"k": "a", "w": j} for j in range(4)]
        out = sweep(lambda c: frame(c, L, "L", ["k", "v"])
                    .join(frame(c, R, "R", ["k", "w"]), on="k"))
        assert len(out) == 12               # 3 left x 4 right
        # left-major, right-minor arrival order within a key group
        assert [(r["v"], r["w"]) for r in out] == \
            [(v, w) for v in range(3) for w in range(4)]

    def test_multi_column_keys_with_duplicates(self):
        rng = random.Random(3)
        L = [{"a": rng.randrange(2), "b": rng.choice(["x", "y"]), "v": i}
             for i in range(40)]
        R = [{"a": rng.randrange(2), "b": rng.choice(["x", "y"]), "w": i}
             for i in range(30)]
        out = sweep(lambda c: frame(c, L, "L", ["a", "b", "v"])
                    .join(frame(c, R, "R", ["a", "b", "w"]), on=["a", "b"]))
        # multiplicity oracle: per-key product of side counts
        from collections import Counter
        lc = Counter((r["a"], r["b"]) for r in L)
        rc = Counter((r["a"], r["b"]) for r in R)
        assert len(out) == sum(lc[k] * rc.get(k, 0) for k in lc)


# -- empty sides and null extension ---------------------------------------


class TestEmptyAndLeftJoin:
    @pytest.mark.parametrize("how", ["inner", "left"])
    def test_empty_sides(self, how):
        lone = [{"k": 1, "v": 2}]
        rone = [{"k": 1, "w": 3}]
        for L, R in (([], rone), (lone, []), ([], [])):
            out = sweep(lambda c, L=L, R=R:
                        frame(c, L, "L", ["k", "v"])
                        .join(frame(c, R, "R", ["k", "w"]), on="k", how=how))
            if how == "left" and L:
                assert out == [{"k": 1, "v": 2, "w": None}]
            else:
                assert out == []

    def test_null_extension_promotes_int_column(self):
        # right extra is int64-typed; null extension must surface Python
        # None (not 0, not NaN) and leave matched values exact ints
        L = [{"k": 1, "v": 0}, {"k": 99, "v": 1}]
        R = [{"k": 1, "w": 7}]
        out = sweep(lambda c: frame(c, L, "L", ["k", "v"])
                    .join(frame(c, R, "R", ["k", "w"]), on="k", how="left"))
        assert out == [{"k": 1, "v": 0, "w": 7},
                       {"k": 99, "v": 1, "w": None}]
        assert repr(out[0]["w"]) == "7"     # not numpy int64 wrapper


# -- join kernels ----------------------------------------------------------


def _int_keys(rng, n):
    return [rng.randrange(-20, 40) for _ in range(n)]


#: key family -> (left keys, right keys) generator; the sort-merge kernel
#: takes the int64/bool families, every other one falls back to the hash
#: kernel, and both must produce the same codes
KEY_FAMILIES = {
    "int64": lambda rng, n: (_int_keys(rng, n), _int_keys(rng, n)),
    "bool": lambda rng, n: ([rng.random() < 0.5 for _ in range(n)],
                            [rng.random() < 0.3 for _ in range(n)]),
    "int_vs_bool": lambda rng, n: (_int_keys(rng, n),
                                   [rng.random() < 0.5 for _ in range(n)]),
    "mixed_numeric": lambda rng, n: tuple(
        [rng.choice([0, 1, 1.0, True, False, 2.5, -3, 7])
         for _ in range(n)] for _side in range(2)),
    "string": lambda rng, n: tuple(
        [rng.choice(["a", "b", "1", "", "zz"]) for _ in range(n)]
        for _side in range(2)),
    "beyond_int64_left": lambda rng, n: (
        _int_keys(rng, n) + [2 ** 70, -(2 ** 64)], _int_keys(rng, n)),
    "beyond_int64_right": lambda rng, n: (
        _int_keys(rng, n), _int_keys(rng, n) + [2 ** 70]),
    "empty_right": lambda rng, n: (_int_keys(rng, n), []),
    "empty_left": lambda rng, n: ([], _int_keys(rng, n)),
}


@pytest.mark.parametrize("family", sorted(KEY_FAMILIES))
@pytest.mark.parametrize("seed", range(3))
def test_probe_codes_matches_hash_kernel(family, seed):
    rng = random.Random(seed)
    left_keys, right_keys = KEY_FAMILIES[family](rng, rng.randrange(1, 60))
    left = ColumnBatch.from_rows([{"k": k} for k in left_keys], ["k"])
    right = ColumnBatch.from_rows([{"k": k} for k in right_keys], ["k"])
    _codes, uniq_keys = factorize(left, ("k",))
    fast = _probe_codes(right, ("k",), uniq_keys)
    oracle = _probe_hash(right, ("k",), uniq_keys)
    assert fast.dtype == oracle.dtype == np.int64
    assert fast.tolist() == oracle.tolist()
    if family == "int64":          # non-vacuous: some rows hit, some miss
        assert 0 < int((oracle >= 0).sum()) < len(right_keys)


def test_int_key_join_matches_row_oracle():
    rng = random.Random(7)
    L = [{"k": rng.randrange(40), "v": i} for i in range(300)]
    R = [{"k": rng.randrange(40), "w": i} for i in range(100)]
    out = sweep(lambda c: frame(c, L, "L", ["k", "v"])
                .join(frame(c, R, "R", ["k", "w"]), on="k"))
    assert out       # non-vacuous


# -- float aggregates under adaptive rewrites ------------------------------


class TestAdaptiveFloatContract:
    """The one documented carve-out from the adaptive on-vs-off contract.

    A rewrite that removes or reshapes a shuffle (broadcast, skew) feeds
    the same values to a downstream fold in a different order; float
    addition is not associative, so float sums may differ in the last
    ulps.  Exact dtypes (int/bool/str) are association-independent and
    must stay byte-equal.  Columnar-vs-row byte equality is *not*
    relaxed — it holds at every fixed adaptive setting, floats included.
    """

    def _outputs(self, values):
        rng = random.Random(11)
        fact = [{"k": rng.randrange(20), "v": v} for v in values]
        dim = [{"k": i, "label": f"g{i % 4}"} for i in range(20)]

        def build(ctx):
            return (frame(ctx, fact, "fact", ["k", "v"])
                    .join(frame(ctx, dim, "dim", ["k", "label"]), on="k")
                    .group_by("label").agg(n=count_(), s=sum_(col("v"))))
        outs = {}
        for aqe in (False, True):
            per_mode = []
            for columnar in (False, True):
                q = build(mode_ctx(6, columnar, aqe))
                out = q.collect()
                if aqe:     # non-vacuity: the shuffle really was rewritten
                    assert "broadcast_joins" in q.last_adaptive_report.kinds()
                per_mode.append(list(map(repr, out)))
            assert per_mode[0] == per_mode[1], \
                f"columnar/row diverge (adaptive={aqe})"
            outs[aqe] = per_mode[0]
        return outs

    def test_int_sums_byte_equal_across_modes(self):
        rng = random.Random(5)
        outs = self._outputs([rng.randrange(1000) for _ in range(2000)])
        assert sorted(outs[False]) == sorted(outs[True])

    def test_float_sums_equal_within_reassociation(self):
        import ast
        import math
        rng = random.Random(5)
        outs = self._outputs([rng.random() * 100 for _ in range(2000)])
        by_label = {}
        for aqe, rows in outs.items():
            for r in map(ast.literal_eval, rows):
                by_label.setdefault(r["label"], {})[aqe] = r
        assert len(by_label) == 4
        for label, pair in by_label.items():
            off, on = pair[False], pair[True]
            assert off["n"] == on["n"], label       # counts are exact
            assert math.isclose(off["s"], on["s"], rel_tol=1e-12), label
