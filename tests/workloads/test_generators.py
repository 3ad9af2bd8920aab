"""Workload generators: determinism and distributional knobs."""

import numpy as np
import pytest

from repro.common.errors import ConfigError
from repro.workloads import (
    event_stream,
    job_mix,
    mmpp_rate_trace,
    poisson_rate_trace,
    teragen,
    web_sessions,
    zipf_block_trace,
    zipf_text,
)


class TestZipfText:
    def test_shape(self):
        docs = zipf_text(10, 20, vocab_size=100, seed=0)
        assert len(docs) == 10
        assert all(len(d.split()) == 20 for d in docs)

    def test_deterministic(self):
        assert zipf_text(5, 10, seed=3) == zipf_text(5, 10, seed=3)

    def test_skew_concentrates_vocabulary(self):
        from collections import Counter
        flat = Counter(" ".join(zipf_text(50, 100, 500, skew=1.5,
                                          seed=1)).split())
        uniform = Counter(" ".join(zipf_text(50, 100, 500, skew=0.0,
                                             seed=1)).split())
        top_flat = flat.most_common(1)[0][1] / sum(flat.values())
        top_uni = uniform.most_common(1)[0][1] / sum(uniform.values())
        assert top_flat > 5 * top_uni

    def test_validation(self):
        with pytest.raises(ConfigError):
            zipf_text(0, 1)


class TestTeragen:
    def test_record_shape(self):
        recs = teragen(100, key_bytes=10, payload_bytes=90, seed=0)
        assert len(recs) == 100
        assert all(len(k) == 10 and len(p) == 90 for k, p in recs)

    def test_keys_roughly_unique(self):
        recs = teragen(1000, seed=1)
        assert len({k for k, _ in recs}) > 990

    def test_deterministic(self):
        assert teragen(10, seed=5) == teragen(10, seed=5)


class TestJobMix:
    def test_count_and_horizon(self):
        specs = job_mix(50, 100.0, seed=0)
        assert len(specs) == 50
        assert all(0 <= s.arrival <= 100.0 for s in specs)

    def test_sorted_arrivals(self):
        specs = job_mix(30, 50.0, seed=1)
        arr = [s.arrival for s in specs]
        assert arr == sorted(arr)

    def test_short_long_mix(self):
        specs = job_mix(200, 100.0, short_frac=0.8, seed=2)
        short = [s for s in specs if s.n_tasks <= 10]
        assert 0.6 < len(short) / len(specs) < 0.95

    def test_heavy_tail_durations(self):
        specs = job_mix(300, 100.0, seed=3)
        durs = [d for s in specs for d in s.task_durations]
        assert max(durs) > 5 * np.median(durs)

    def test_users_and_queues_assigned(self):
        specs = job_mix(100, 10.0, n_users=3, seed=4)
        assert {s.user for s in specs} <= {f"user{i}" for i in range(3)}
        assert {s.queue for s in specs} <= {"prod", "dev"}

    def test_deterministic(self):
        a = job_mix(20, 10.0, seed=9)
        b = job_mix(20, 10.0, seed=9)
        assert [s.task_durations for s in a] == [s.task_durations for s in b]


class TestRateTraces:
    def test_poisson_mean(self):
        trace = poisson_rate_trace(100.0, 2000.0, seed=0)
        assert trace.mean() == pytest.approx(100.0, rel=0.05)

    def test_mmpp_two_levels(self):
        trace = mmpp_rate_trace(10, 200, 5000, seed=1)
        assert set(np.unique(trace)) == {10.0, 200.0}

    def test_mmpp_dwell_fractions(self):
        trace = mmpp_rate_trace(10, 200, 50_000, mean_low_dwell=300,
                                mean_high_dwell=60, seed=2)
        frac_high = float(np.mean(trace == 200.0))
        assert 0.05 < frac_high < 0.35   # ~60/(300+60) ≈ 0.17

    def test_validation(self):
        with pytest.raises(ConfigError):
            mmpp_rate_trace(100, 10, 100)


class TestWebSessions:
    def test_sorted_and_in_horizon(self):
        ev = web_sessions(20, 5000.0, seed=0)
        ts = [t for t, _, _ in ev]
        assert ts == sorted(ts)
        assert all(0 <= t < 5000.0 for t in ts)

    def test_pages_valid(self):
        ev = web_sessions(10, 2000.0, n_pages=7, seed=1)
        assert {p for _, _, p in ev} <= {f"/page{i}" for i in range(7)}

    def test_session_structure_exists(self):
        """Per-user inter-event gaps should be bimodal (in/out of session)."""
        ev = web_sessions(5, 50_000.0, mean_gap=10, mean_intersession=2000,
                          seed=2)
        by_user = {}
        for t, u, _ in ev:
            by_user.setdefault(u, []).append(t)
        gaps = []
        for ts in by_user.values():
            gaps += list(np.diff(ts))
        gaps = np.array(gaps)
        assert (gaps < 100).sum() > 0 and (gaps > 500).sum() > 0


class TestBlockTrace:
    def test_range_and_determinism(self):
        tr = zipf_block_trace(1000, 50, seed=0)
        assert tr.min() >= 0 and tr.max() < 50
        assert np.array_equal(tr, zipf_block_trace(1000, 50, seed=0))

    def test_skew_effect_on_reuse(self):
        hot = zipf_block_trace(5000, 500, skew=1.2, seed=1)
        cold = zipf_block_trace(5000, 500, skew=0.0, seed=1)
        assert len(np.unique(hot)) < len(np.unique(cold))


class TestEventStream:
    def test_shapes_and_order(self):
        arrival, ts, keys, values = event_stream("uniform", 2000.0, 10.0,
                                                 seed=0)
        n = len(arrival)
        assert len(ts) == len(keys) == len(values) == n
        assert np.all(np.diff(arrival) >= 0)          # sorted by arrival
        assert np.all(ts <= arrival) and np.all(ts >= 0)
        assert arrival.max() < 10.0

    def test_determinism(self):
        a = event_stream("bursty", 1000.0, 10.0, seed=7)
        b = event_stream("bursty", 1000.0, 10.0, seed=7)
        for x, y in zip(a, b):
            assert np.array_equal(x, y)

    def test_skewed_concentrates_keys(self):
        _a, _t, hot, _v = event_stream("skewed", 3000.0, 10.0, n_keys=64,
                                       key_skew=1.5, seed=1)
        _a, _t, cold, _v = event_stream("uniform", 3000.0, 10.0, n_keys=64,
                                        seed=1)
        top_hot = np.bincount(hot, minlength=64).max() / len(hot)
        top_cold = np.bincount(cold, minlength=64).max() / len(cold)
        assert top_hot > 2 * top_cold

    def test_bursty_is_time_correlated(self):
        arrival, *_ = event_stream("bursty", 2000.0, 20.0, seed=3)
        counts = np.histogram(arrival, bins=20, range=(0.0, 20.0))[0]
        uni, *_ = event_stream("uniform", 2000.0, 20.0, seed=3)
        ucounts = np.histogram(uni, bins=20, range=(0.0, 20.0))[0]
        assert counts.std() > 2 * ucounts.std()

    def test_in_order_when_no_delay(self):
        arrival, ts, _k, _v = event_stream("uniform", 1000.0, 5.0,
                                           ooo_delay=0.0, seed=2)
        assert np.array_equal(arrival, ts)

    def test_bad_scenario(self):
        with pytest.raises(ConfigError):
            event_stream("sawtooth", 100.0, 1.0)


def _zipf_text_per_document(n_docs, words_per_doc, vocab_size=1000,
                            skew=1.0, seed=None):
    """Test-only oracle: ``zipf_text`` as one ``rng.choice`` per word of
    the vocabulary and per document (the generator before batching)."""
    import string

    from repro.common.rng import ensure_rng, zipf_pmf

    rng = ensure_rng(seed)
    letters = np.array(list(string.ascii_lowercase))
    words, vocab = set(), []
    while len(vocab) < vocab_size:
        w = "".join(rng.choice(letters, size=int(rng.integers(3, 10))))
        if w not in words:
            words.add(w)
            vocab.append(w)
    vocab = np.array(vocab, dtype=object)
    pmf = zipf_pmf(vocab_size, skew)
    return [" ".join(vocab[rng.choice(vocab_size, size=words_per_doc, p=pmf)])
            for _ in range(n_docs)]


@pytest.mark.parametrize("shape", [(1, 1, 1), (7, 13, 50), (40, 120, 300),
                                   (200, 30, 2000), (30, 3000, 40)])
@pytest.mark.parametrize("skew", [0.0, 1.0, 1.7])
def test_zipf_text_matches_per_document_draws(shape, skew):
    """The batched draw must give the documents, word for word, that one
    ``Generator.choice`` per document gives, also when it draws in several
    batches (the last shape); a numpy release that changes how ``choice``
    draws fails here."""
    n_docs, words_per_doc, vocab_size = shape
    for seed in range(10):
        assert zipf_text(n_docs, words_per_doc, vocab_size, skew, seed) == \
            _zipf_text_per_document(n_docs, words_per_doc, vocab_size, skew,
                                    seed), seed
