"""Counter-mode draw streams: purity, rollback, statistical quality."""

import math
import random

import numpy as np
import pytest
from scipy import stats

from tiewarp.rngstream import (
    DrawStream,
    Purpose,
    derive_stream_key,
    draw_at,
    draws_array,
    mix64,
    to_unit_interval,
)


def test_mix64_is_injective_on_sample():
    values = {mix64(i) for i in range(100_000)}
    assert len(values) == 100_000


def test_draw_at_is_pure():
    key = derive_stream_key(42, 3, Purpose.TIEBREAK)
    first = [draw_at(key, i) for i in range(100)]
    # interleave accesses in a scrambled order; values must not care
    order = list(range(100))
    random.Random(1).shuffle(order)
    again = {i: draw_at(key, i) for i in order}
    assert all(again[i] == first[i] for i in range(100))


def test_stream_matches_indexed_draws():
    key = derive_stream_key(7, 0, Purpose.MODEL)
    stream = DrawStream(key)
    assert [stream.draw() for _ in range(50)] == [draw_at(key, i) for i in range(50)]
    assert stream.cursor == 50


def test_vectorized_draws_bit_equal_to_scalar():
    rng = random.Random(1000)
    for _ in range(20):
        key = rng.randrange(2 ** 64)
        start = rng.randrange(10_000)
        count = rng.randrange(1, 500)
        vec = draws_array(key, start, count)
        assert vec.dtype == np.uint64
        scalar = [draw_at(key, start + i) for i in range(count)]
        assert vec.tolist() == scalar


def test_snapshot_restore_fuzz():
    # Oracle: the stream at cursor c must always produce draw_at(key, c).
    rng = random.Random(0xF00D)
    key = derive_stream_key(9, 4, Purpose.TIEBREAK)
    stream = DrawStream(key)
    snapshots = [stream.snapshot()]
    for _ in range(5000):
        action = rng.random()
        if action < 0.6:
            cursor_before = stream.cursor
            assert stream.draw() == draw_at(key, cursor_before)
            assert stream.cursor == cursor_before + 1
        elif action < 0.8:
            snapshots.append(stream.snapshot())
        else:
            target = rng.choice(snapshots)
            stream.restore(target)
            assert stream.cursor == target
            assert stream.draw() == draw_at(key, target)


def test_stream_keys_distinct_across_lps_seeds_purposes():
    keys = set()
    for seed in range(8):
        for lp in range(64):
            for purpose in (Purpose.TIEBREAK, Purpose.MODEL):
                keys.add(derive_stream_key(seed, lp, purpose))
    assert len(keys) == 8 * 64 * 2


def test_unit_interval_is_open_and_monotone():
    assert 0.0 < to_unit_interval(0) < 1.0
    assert 0.0 < to_unit_interval(2 ** 64 - 1) < 1.0
    rng = random.Random(3)
    pairs = sorted(rng.randrange(2 ** 64) for _ in range(1000))
    floats = [to_unit_interval(v) for v in pairs]
    assert floats == sorted(floats)


def test_uniformity_chi_square():
    # 256 equal-width bins over 2**64; fail only below the 1% point.
    key = derive_stream_key(2024, 0, Purpose.TIEBREAK)
    draws = draws_array(key, 0, 200_000)
    bins = (draws >> np.uint64(56)).astype(np.int64)
    counts = np.bincount(bins, minlength=256)
    _, p_value = stats.chisquare(counts)
    assert p_value > 0.01, f"uniformity rejected: p={p_value:.5f}"


def test_low_bits_uniform_too():
    key = derive_stream_key(2025, 1, Purpose.MODEL)
    draws = draws_array(key, 0, 200_000)
    counts = np.bincount((draws & np.uint64(0xFF)).astype(np.int64), minlength=256)
    _, p_value = stats.chisquare(counts)
    assert p_value > 0.01, f"low-bit uniformity rejected: p={p_value:.5f}"


def test_cross_stream_correlation_negligible():
    n = 100_000
    a = draws_array(derive_stream_key(5, 0, Purpose.TIEBREAK), 0, n)
    pairs = [
        draws_array(derive_stream_key(5, 1, Purpose.TIEBREAK), 0, n),  # next LP
        draws_array(derive_stream_key(5, 0, Purpose.MODEL), 0, n),     # other purpose
        draws_array(derive_stream_key(6, 0, Purpose.TIEBREAK), 0, n),  # next seed
    ]
    ua = a.astype(np.float64)
    for b in pairs:
        r = np.corrcoef(ua, b.astype(np.float64))[0, 1]
        # null standard error is ~1/sqrt(n) ~= 0.0032; 0.02 is far outside
        assert abs(r) < 0.02, f"streams correlate: r={r:.5f}"


def test_randint_bounds_and_coverage():
    stream = DrawStream.for_lp(11, 2, Purpose.MODEL)
    seen = set()
    for _ in range(2000):
        v = stream.randint(3, 9)
        assert 3 <= v <= 9
        seen.add(v)
    assert seen == set(range(3, 10))
    assert DrawStream.for_lp(11, 3, Purpose.MODEL).randint(5, 5) == 5


def test_exponential_positive_with_correct_mean():
    stream = DrawStream.for_lp(77, 0, Purpose.MODEL)
    n = 100_000
    mean = 2.5
    values = [stream.exponential(mean) for _ in range(n)]
    assert min(values) > 0.0
    sample_mean = sum(values) / n
    # standard error of the mean for an exponential is mean/sqrt(n)
    assert abs(sample_mean - mean) < 4 * mean / math.sqrt(n)
    with pytest.raises(ValueError):
        stream.exponential(0.0)


def test_functional_exponential_matches_stream():
    # the stream's exponential is the inverse CDF of the indexed draw, bit for bit
    key = derive_stream_key(77, 1, Purpose.MODEL)
    stream = DrawStream(key)
    for i in range(100):
        want = -1.5 * math.log1p(-to_unit_interval(draw_at(key, i)))
        assert stream.exponential(1.5) == want
    assert stream.cursor == 100


def test_pick_other_excludes_self_and_covers_rest():
    stream = DrawStream.for_lp(13, 5, Purpose.MODEL)
    n_lps = 8
    counts = {i: 0 for i in range(n_lps) if i != 5}
    for _ in range(7000):
        dest = stream.pick_other(n_lps, 5)
        assert dest != 5
        counts[dest] += 1
    # each of the 7 others expects 1000 hits; demand rough balance
    assert min(counts.values()) > 800
    assert max(counts.values()) < 1200
    assert DrawStream.for_lp(13, 0, Purpose.MODEL).pick_other(1, 0) == 0


def test_same_key_means_same_sequence():
    a = DrawStream.for_lp(21, 4, Purpose.TIEBREAK)
    b = DrawStream.for_lp(21, 4, Purpose.TIEBREAK)
    assert [a.draw() for _ in range(64)] == [b.draw() for _ in range(64)]
