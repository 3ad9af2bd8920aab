"""The P0 guard table: every row checked just past and just inside its
bound, at full and reduced scale, and the pool row's skips."""

import math

import pytest

from repro.bench.perfsuite import GUARDS, check_guards

SCALES = (1.0, 0.5)


def _inside(guard, scale):
    """The reading closest to the bound that still passes."""
    limit = guard.limit(scale)
    return math.nextafter(limit, -math.inf) if guard.ceiling else limit


def _past(guard, scale):
    """The reading closest to the bound that fails."""
    limit = guard.limit(scale)
    return limit if guard.ceiling else math.nextafter(limit, -math.inf)


def _summary(scale):
    """A summary on which every row reads just inside its bound and the
    pool row applies (4 workers on enough cores)."""
    summary = {key: _inside(g, scale) for key, g in GUARDS.items()}
    summary.update(pool_workers=4, pool_insufficient_cores=False)
    return summary


@pytest.mark.parametrize("scale", SCALES)
def test_every_row_passes_just_inside_its_bound(scale):
    lines = check_guards(_summary(scale), scale)
    assert len(lines) == len(GUARDS)
    assert not any("skipped" in line for line in lines)


@pytest.mark.parametrize("scale", SCALES)
@pytest.mark.parametrize("key", sorted(GUARDS))
def test_a_reading_just_past_its_bound_names_the_key(key, scale):
    summary = _summary(scale)
    summary[key] = _past(GUARDS[key], scale)
    with pytest.raises(AssertionError, match=key):
        check_guards(summary, scale)


def test_reduced_scales_use_the_smoke_floor():
    sql = GUARDS["sql_speedup"]
    assert sql.limit(0.5) == sql.smoke < sql.limit(1.0) == sql.bound
    fusion = GUARDS["fusion_speedup"]
    assert fusion.limit(0.1) == fusion.bound


@pytest.mark.parametrize("change, reason", [
    ({"pool_insufficient_cores": True}, "fewer than 4 cores"),
    ({"pool_workers": None, "pool_insufficient_cores": None},
     "did not run"),
    ({"pool_workers": 2}, "4-worker sweep"),
])
def test_pool_row_skips_past_its_bound(change, reason):
    pool = GUARDS["pool_speedup"]
    summary = _summary(1.0)
    summary.update(pool_speedup=_past(pool, 1.0), **change)
    line = pool.check(summary, 1.0)
    assert "skipped" in line and reason in line


def test_pool_row_skips_below_quarter_scale():
    pool = GUARDS["pool_speedup"]
    summary = _summary(0.1)
    summary["pool_speedup"] = _past(pool, 0.1)
    assert "skipped" in pool.check(summary, 0.1)
    with pytest.raises(AssertionError, match="pool_speedup"):
        pool.check(summary, 0.25)
