"""Counter-mode draw streams: purity, rollback, statistical quality."""

import enum
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from tiewarp.kernel_optimistic import _CHAOS_SALT, ChaosConfig, OptimisticKernel
from tiewarp.kernel_seq import SequentialKernel, make_lps
from tiewarp.models import build_model
from tiewarp.rngstream import (
    _GAMMA,
    _LANES,
    _MASK64,
    _MIX1,
    _MIX2,
    DrawStream,
    draw_at,
    draw_block,
    lp_keys,
    mix64,
    uniform_below,
)
from tiewarp.timebase import OrderingMode


def to_unit_interval(value: int) -> float:
    """Oracle of ``DrawStream.uniform`` and ``exponential``, which inline it:
    a 64-bit draw mapped into the open interval (0,1).

    Keeps the top 52 bits and centers the lattice: every result is the
    exactly representable (2k+1) * 2**-53, so the endpoints are 2**-53 and
    1 - 2**-53 and no rounding can reach 0.0 or 1.0. (With 53 bits the top
    value 1 - 2**-54 would round-to-even up to exactly 1.0 and the
    exponential sampler would return inf.)
    """
    return (value >> 12) * 2.0**-52 + 2.0**-53


class Purpose(enum.IntEnum):
    """What a key is for: the number the oracle hashes as its purpose."""

    TIEBREAK = 1
    MODEL = 2


def oracle_stream_key(global_seed: int, lp_id: int, purpose: int) -> int:
    """Oracle of ``lp_keys``: the key of one (seed, LP, purpose), hashed
    along its own chain, with no hash shared between keys."""
    k = mix64(global_seed)
    k = mix64(k ^ mix64(lp_id + 0x632BE59BD9B4E019))
    k = mix64(k ^ mix64(int(purpose) * 0xD6E8FEB86659FD93))
    return k


def draws_array(key: int, start: int, count: int) -> np.ndarray:
    """Vectorized draw_at over indices [start, start+count), for the
    statistical tests. Bit-identical to the scalar path."""
    idx = np.arange(start + 1, start + count + 1, dtype=np.uint64)
    z = np.uint64(key & _MASK64) + idx * np.uint64(_GAMMA)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
    return z ^ (z >> np.uint64(31))


def test_mix64_is_injective_on_sample():
    values = {mix64(i) for i in range(100_000)}
    assert len(values) == 100_000


def test_draw_at_is_pure():
    key = oracle_stream_key(42, 3, Purpose.TIEBREAK)
    first = [draw_at(key, i) for i in range(100)]
    # interleave accesses in a scrambled order; values must not care
    order = list(range(100))
    random.Random(1).shuffle(order)
    again = {i: draw_at(key, i) for i in order}
    assert all(again[i] == first[i] for i in range(100))


def test_stream_matches_indexed_draws():
    key = oracle_stream_key(7, 0, Purpose.MODEL)
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
    key = oracle_stream_key(9, 4, Purpose.TIEBREAK)
    stream = DrawStream(key)
    snapshots = [stream.cursor]
    for _ in range(5000):
        action = rng.random()
        if action < 0.6:
            cursor_before = stream.cursor
            assert stream.draw() == draw_at(key, cursor_before)
            assert stream.cursor == cursor_before + 1
        elif action < 0.8:
            snapshots.append(stream.cursor)
        else:
            target = rng.choice(snapshots)
            stream.cursor = target
            assert stream.draw() == draw_at(key, target)


def test_stream_keys_distinct_across_lps_seeds_purposes():
    keys = set()
    for seed in range(8):
        for lp in range(64):
            keys.update(lp_keys(mix64(seed), lp))
    assert len(keys) == 8 * 64 * 2


_RNG = random.Random(0x5EED)
KEY_SEEDS = (0, 1, 2 ** 63, 2 ** 64 - 1, _RNG.randrange(2 ** 64), _RNG.randrange(2 ** 64))
# the chaos stream's LP id among them, and one whose salted id wraps past 2**64
KEY_LPS = (0, 1, 1023, 2 ** 20, _CHAOS_SALT, 2 ** 64 - 1)


@pytest.mark.parametrize("seed", KEY_SEEDS)
def test_derived_keys_match_the_oracle(seed):
    # lp_keys, the key pass in one lane, gives every key its unshared
    # derivation, bit for bit
    for lp in KEY_LPS:
        tiebreak, model = lp_keys(mix64(seed), lp)
        assert tiebreak == oracle_stream_key(seed, lp, Purpose.TIEBREAK)
        assert model == oracle_stream_key(seed, lp, Purpose.MODEL)


def kernel_lps(seed: int) -> dict:
    """Each kernel's LPs, in id order, for a 1024-LP model under ``seed``."""
    model = build_model("phold", n_lps=1024, end_time=1.0)
    mode = OrderingMode.LEX_SEQUENCE
    return {"sequential": SequentialKernel(model, mode, seed).lps,
            "optimistic": OptimisticKernel(model, mode, seed, 3).lps}


def lp_key_pairs(lps) -> list:
    return [(rt.tiebreak_key, rt.model_stream.key) for rt in lps]


@pytest.mark.parametrize("n_lps", (1, 7, 16, 17, 1025))
def test_make_lps_key_pass_matches_the_oracle(n_lps):
    # one lane pass derives every LP's keys, at lane counts on both sides
    # of a block's width and past a thousand
    model = build_model("phold", n_lps=n_lps, end_time=1.0)
    for seed in KEY_SEEDS:
        want = [(oracle_stream_key(seed, lp, Purpose.TIEBREAK),
                 oracle_stream_key(seed, lp, Purpose.MODEL)) for lp in range(n_lps)]
        assert lp_key_pairs(make_lps(model, seed)) == want


@pytest.mark.parametrize("seed", KEY_SEEDS)
def test_kernels_give_every_lp_its_derived_keys(seed):
    # LPs 0, 1 and 1023 among them; LP 2**20 is pinned through lp_keys above
    want = [(oracle_stream_key(seed, lp, Purpose.TIEBREAK),
             oracle_stream_key(seed, lp, Purpose.MODEL)) for lp in range(1024)]
    for name, lps in kernel_lps(seed).items():
        assert [rt.lp_id for rt in lps] == list(range(1024)), name
        assert lp_key_pairs(lps) == want, name
        assert all(rt.model_stream.cursor == 0 for rt in lps), name


@pytest.mark.parametrize("chaos_seed", KEY_SEEDS)
def test_chaos_key_is_unchanged(chaos_seed):
    model = build_model("phold", n_lps=4, end_time=1.0)
    kernel = OptimisticKernel(model, OrderingMode.LEX_SEQUENCE, 1, 2,
                              chaos=ChaosConfig(chaos_seed))
    assert kernel.chaos.key == oracle_stream_key(chaos_seed, 0x51ED0C4A05, Purpose.MODEL)
    assert kernel.chaos.cursor == 0


def test_kernels_built_back_to_back_get_their_own_seeds_keys():
    # nothing of one construction's seed may carry over into the next
    first, second, again = kernel_lps(5), kernel_lps(6), kernel_lps(5)
    for name in first:
        a, b = lp_key_pairs(first[name]), lp_key_pairs(second[name])
        assert all(ka != kb and ma != mb for (ka, ma), (kb, mb) in zip(a, b)), name
        assert lp_key_pairs(again[name]) == a, name


def test_unit_interval_is_open_and_monotone():
    assert 0.0 < to_unit_interval(0) < 1.0
    assert 0.0 < to_unit_interval(2 ** 64 - 1) < 1.0
    rng = random.Random(3)
    pairs = sorted(rng.randrange(2 ** 64) for _ in range(1000))
    floats = [to_unit_interval(v) for v in pairs]
    assert floats == sorted(floats)


def test_uniformity_chi_square():
    # 256 equal-width bins over 2**64; fail only below the 1% point.
    key = oracle_stream_key(2024, 0, Purpose.TIEBREAK)
    draws = draws_array(key, 0, 200_000)
    bins = (draws >> np.uint64(56)).astype(np.int64)
    counts = np.bincount(bins, minlength=256)
    _, p_value = stats.chisquare(counts)
    assert p_value > 0.01, f"uniformity rejected: p={p_value:.5f}"


def test_low_bits_uniform_too():
    key = oracle_stream_key(2025, 1, Purpose.MODEL)
    draws = draws_array(key, 0, 200_000)
    counts = np.bincount((draws & np.uint64(0xFF)).astype(np.int64), minlength=256)
    _, p_value = stats.chisquare(counts)
    assert p_value > 0.01, f"low-bit uniformity rejected: p={p_value:.5f}"


def test_cross_stream_correlation_negligible():
    n = 100_000
    a = draws_array(oracle_stream_key(5, 0, Purpose.TIEBREAK), 0, n)
    pairs = [
        draws_array(oracle_stream_key(5, 1, Purpose.TIEBREAK), 0, n),  # next LP
        draws_array(oracle_stream_key(5, 0, Purpose.MODEL), 0, n),     # other purpose
        draws_array(oracle_stream_key(6, 0, Purpose.TIEBREAK), 0, n),  # next seed
    ]
    ua = a.astype(np.float64)
    for b in pairs:
        r = np.corrcoef(ua, b.astype(np.float64))[0, 1]
        # null standard error is ~1/sqrt(n) ~= 0.0032; 0.02 is far outside
        assert abs(r) < 0.02, f"streams correlate: r={r:.5f}"


def test_randint_bounds_and_coverage():
    stream = DrawStream(oracle_stream_key(11, 2, Purpose.MODEL))
    seen = set()
    for _ in range(2000):
        v = stream.randint(3, 9)
        assert 3 <= v <= 9
        seen.add(v)
    assert seen == set(range(3, 10))
    assert DrawStream(oracle_stream_key(11, 3, Purpose.MODEL)).randint(5, 5) == 5


def test_exponential_positive_with_correct_mean():
    stream = DrawStream(oracle_stream_key(77, 0, Purpose.MODEL))
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
    key = oracle_stream_key(77, 1, Purpose.MODEL)
    stream = DrawStream(key)
    for i in range(100):
        want = -1.5 * math.log1p(-to_unit_interval(draw_at(key, i)))
        assert stream.exponential(1.5) == want
    assert stream.cursor == 100


def test_functional_uniform_matches_stream():
    # uniform() is to_unit_interval of the indexed draw, bit for bit
    key = oracle_stream_key(77, 2, Purpose.MODEL)
    stream = DrawStream(key)
    for i in range(100):
        assert stream.uniform() == to_unit_interval(draw_at(key, i))
    assert stream.cursor == 100


class FixedDraw(DrawStream):
    """A stream whose every draw is ``value``, so ``uniform()`` runs on it."""

    __slots__ = ("value",)

    def __init__(self, value: int):
        super().__init__(0)
        self.value = value

    def draw(self) -> int:
        return self.value


# probabilities where the threshold is tight: the ends, subnormals, the
# uniform() lattice (2k+1) * 2**-53 and its neighbours, multiples of 2**-53
EDGE_PROBS = (0.0, 1.0, 5e-324, 2.0**-1022, 2.0**-60, 2.0**-54, 2.0**-53, 3 * 2.0**-53,
              math.nextafter(3 * 2.0**-53, 0), math.nextafter(3 * 2.0**-53, 1),
              0.1, 0.5, math.nextafter(0.5, 0), 1 - 2.0**-53, 1 - 2.0**-54)
probabilities = st.one_of(
    st.floats(0.0, 1.0),  # subnormals included
    st.sampled_from(EDGE_PROBS),
    st.integers(0, 2**53).map(lambda k: k * 2.0**-53),
    st.integers(0, 2**52 - 1).map(lambda k: (2 * k + 1) * 2.0**-53),
)


@settings(max_examples=1000, deadline=None, derandomize=True, database=None)
@given(p=probabilities, word=st.integers(0, 2**64 - 1),
       near=st.sampled_from((None, -4096, -1, 0, 1, 4096)))
def test_uniform_below_is_the_exact_threshold_of_uniform(p, word, near):
    # d < uniform_below(p) exactly when uniform() of d is below p, for
    # random words and for the words next to the threshold
    threshold = uniform_below(p)
    assert 0 <= threshold <= 2**64 and threshold % 4096 == 0
    d = word if near is None else min(max(threshold + near, 0), 2**64 - 1)
    assert (d < threshold) == (FixedDraw(d).uniform() < p)


def test_uniform_below_at_the_ends():
    assert uniform_below(0.0) == 0
    assert uniform_below(1.0) == 2**64
    assert uniform_below(0) == 0 and uniform_below(1) == 2**64
    assert uniform_below(2.0**-53) == 0  # uniform() is never below its least value
    assert uniform_below(3 * 2.0**-53) == 4096  # only k = 0 lies below
    # clamped into the draws' range past the ends
    assert uniform_below(-1.0) == 0 and uniform_below(2.0) == 2**64


def test_draw_at_matches_stream_at_extreme_keys_and_indices():
    # draw_at, draw_block's lanes and the stream agree with mix64 where the
    # counter sum wraps past 2**64, inside a block and across blocks
    count = 2 * _LANES + 1
    for key in (0, 1, 2 ** 63, 2 ** 64 - _GAMMA, 2 ** 64 - 2, 2 ** 64 - 1):
        for index in (0, 1, 2 ** 32, 2 ** 63 - 1, 2 ** 64 - 2, 2 ** 64 - 1, 10 ** 30):
            want = [mix64(key + (index + 1 + j) * _GAMMA) for j in range(count)]
            assert [draw_at(key, index + j) for j in range(count)] == want
            assert list(draw_block(key, index)) == want[:_LANES]
            stream = DrawStream(key, index)
            assert [stream.draw() for _ in range(count)] == want
            # rollback assigns a cursor into the middle of an earlier block
            next_block = (index + _LANES + 1) // _LANES * _LANES
            for back in (next_block + _LANES // 2 - index, 1):
                stream.cursor = index + back
                assert [stream.draw() for _ in range(count - back)] == want[back:]


def test_pick_other_excludes_self_and_covers_rest():
    stream = DrawStream(oracle_stream_key(13, 5, Purpose.MODEL))
    n_lps = 8
    counts = {i: 0 for i in range(n_lps) if i != 5}
    for _ in range(7000):
        dest = stream.pick_other(n_lps, 5)
        assert dest != 5
        counts[dest] += 1
    # each of the 7 others expects 1000 hits; demand rough balance
    assert min(counts.values()) > 800
    assert max(counts.values()) < 1200
    assert DrawStream(oracle_stream_key(13, 0, Purpose.MODEL)).pick_other(1, 0) == 0


def test_same_key_means_same_sequence():
    a = DrawStream(oracle_stream_key(21, 4, Purpose.TIEBREAK))
    b = DrawStream(oracle_stream_key(21, 4, Purpose.TIEBREAK))
    assert [a.draw() for _ in range(64)] == [b.draw() for _ in range(64)]
