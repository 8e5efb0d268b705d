"""Deterministic, rollback-safe uniform draw streams.

Each LP has two independent keys, one for tie-breaks and one for model
randomness. Draws are counter-based (Salmon et al., SC 2011): the value at
index ``i`` is a pure function of ``(key, i)``, so any draw can be recomputed
at random access cost O(1). A tie-break is ``draw_at(key, serial)``, keyed by
its event's identity, so rollback restores nothing for it; the model stream
is a key plus a cursor, and rolling it back restores the cursor. The mixing
function is the splitmix64 finalizer over ``key + (i + 1) * GAMMA``; keys
are hashed from ``(global_seed, lp_id, purpose)`` through the same mixer,
along one chain: a kernel hashes its seed once, then ``lp_key_arrays`` hashes
every LP id, mixes each (seed, LP) pair and mixes in each purpose's constant
hash, for all LPs at once.

Every chain is evaluated in lane passes, as counter-based generators are
meant to be: one Python int holds many 64-bit values, lane ``j`` in bits
``[128 j, 128 j + 128)``, and one mixer (``_mix_lanes``) finalizes them all.
``draw_block`` mixes sixteen consecutive counters in one pass. Blocks start
at multiples of ``_LANES``, so a cached block is a pure function of its key
and the block index ``index // _LANES``: a model stream's cursor or an LP's
serial assigned back by rollback needs no invalidation.

The generator family and version are recorded in every run summary so a
digest can never silently mix outputs of different generators.
"""

from __future__ import annotations

import math
import sys
from array import array

GENERATOR_NAME = "splitmix64-counter"
GENERATOR_VERSION = 1

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_LP_SALT = 0x632BE59BD9B4E019
_PURPOSE_SALT = 0xD6E8FEB86659FD93


def mix64(z: int) -> int:
    """splitmix64 finalizer: a 64-bit avalanche permutation."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return z ^ (z >> 31)


# each purpose's hash, tie-break 1 and model 2, mixed into an LP's
# (seed, LP) hash to give its key
_TIEBREAK_HASH = mix64(1 * _PURPOSE_SALT)
_MODEL_HASH = mix64(2 * _PURPOSE_SALT)

# A lane pass packs 64-bit values into one int, lane j in bits
# [128 j, 128 j + 128): each slot is wide enough for the product of a 64-bit
# value and a 64-bit constant. draw_block evaluates _LANES counters per pass.
_LANES = 16
# the lanes' low words, in lane order, among the int's native-order words
_LOW_WORDS = slice(None, None, 2 if sys.byteorder == "little" else -2)


def _pack(values) -> int:
    """The int whose lane ``j`` holds ``values[j]``, each in [0, 2**64)."""
    words = array("Q", bytes(16 * len(values)))
    words[_LOW_WORDS] = array("Q", values)
    return int.from_bytes(words, sys.byteorder)


def _unpack(z: int, lanes: int) -> array:
    """The 64-bit values in the first ``lanes`` lanes of ``z``, in lane order."""
    return array("Q", z.to_bytes(16 * lanes, sys.byteorder))[_LOW_WORDS]


def _mix_lanes(z: int, mask: int) -> int:
    """``mix64`` of every lane of ``z`` at once, where ``mask`` holds
    ``_MASK64`` in each lane and every lane holds a 64-bit value.

    Each shifted term is masked before its xor, so no lane's bits reach its
    neighbour, and a 64-bit lane times a 64-bit constant fills its 128-bit
    slot without carrying out of it.
    """
    z = ((z ^ ((z >> 30) & mask)) * _MIX1) & mask
    z = ((z ^ ((z >> 27) & mask)) * _MIX2) & mask
    return z ^ ((z >> 31) & mask)


def lp_key_arrays(seed_hash: int, lp_ids) -> tuple[array, array]:
    """The ``(tiebreak, model)`` keys of every LP in ``lp_ids``, as two
    arrays in ``lp_ids`` order, where ``seed_hash = mix64(global_seed)``.

    One lane per LP, along one chain of four finalizers: the LP id, the
    (seed, LP) pair, then both purposes in one pass of twice the lanes.
    """
    n = len(lp_ids)
    ones = _pack([1] * n)
    mask = _MASK64 * ones
    k = _mix_lanes(_pack([(lp_id + _LP_SALT) & _MASK64 for lp_id in lp_ids]), mask)
    k = _mix_lanes(k ^ (seed_hash & _MASK64) * ones, mask)
    both = (k ^ _TIEBREAK_HASH * ones) | (k ^ _MODEL_HASH * ones) << 128 * n
    keys = _unpack(_mix_lanes(both, mask | mask << 128 * n), 2 * n)
    return keys[:n], keys[n:]


def lp_keys(seed_hash: int, lp_id: int) -> tuple[int, int]:
    """One LP's ``(tiebreak, model)`` keys: ``lp_key_arrays`` in one lane."""
    tiebreak, model = lp_key_arrays(seed_hash, (lp_id,))
    return tiebreak[0], model[0]


_ONES = _pack([1] * _LANES)
_LANE_MASK = _MASK64 * _ONES
# lane j's counter step past lane 0, j * GAMMA mod 2**64
_LANE_STEPS = _pack([j * _GAMMA & _MASK64 for j in range(_LANES)])


def draw_block(key: int, start: int) -> array:
    """``draw_at(key, start + j)`` for the ``_LANES`` lanes ``j``, in one pass.

    The counter is reduced mod 2**64 before it is spread into the lanes, so
    every lane holds a 64-bit value. The block is an ``array('Q')`` rather
    than int objects: every LP keeps two blocks alive, and keeping eight
    ints per LP alive on ``phold-seq`` slowed the trace digest by about 4%
    and cost half a MiB (2-vCPU x86 VM).
    """
    z = (((key + (start + 1) * _GAMMA) & _MASK64) * _ONES + _LANE_STEPS) & _LANE_MASK
    return _unpack(_mix_lanes(z, _LANE_MASK), _LANES)


def uniform_below(p: float) -> int:
    """The draw threshold of ``uniform() < p``: a draw ``d`` gives a
    ``uniform()`` below ``p`` exactly when ``d < uniform_below(p)``.

    ``uniform()`` of ``d`` is ``(2 k + 1) * 2**-53`` with ``k = d >> 12``, so
    the test holds exactly when ``k < q = ceil((a * 2**53 - b) / (2 b))``,
    where ``a / b`` is ``p`` as an exact ratio; ``q`` is clamped to
    ``[0, 2**52]`` and shifted back to a draw. A finite ``p`` only: NaN has
    no ratio.
    """
    a, b = float(p).as_integer_ratio()
    q = -((b - (a << 53)) // (2 * b))
    return min(max(q, 0), 1 << 52) << 12


def draw_at(key: int, index: int) -> int:
    """The stream's value at cursor ``index``; pure in (key, index).

    The definition that every ``draw_block`` lane, and so every stream draw
    and every drawn tie-break, equals.
    """
    return mix64(key + (index + 1) * _GAMMA)


class DrawStream:
    """One LP-owned stream: a fixed key plus a cursor.

    The cursor is the stream's whole mutable state: rollback saves it and
    assigns it back. The stream also caches ``draw_block`` of the block
    holding its last draw, which depends on the key and the block index
    only, so any cursor may be assigned. Two streams never share a key, so
    there is nothing else to synchronize.
    """

    __slots__ = ("key", "cursor", "_block_index", "_block")

    def __init__(self, key: int, cursor: int = 0):
        self.key = key
        self.cursor = cursor
        self._block_index = None
        self._block = None

    def draw(self) -> int:
        """``draw_at(self.key, self.cursor)``, then advance the cursor."""
        c = self.cursor
        self.cursor = c + 1
        if c // _LANES != self._block_index:  # the block holds _LANES draws
            self._block_index = c // _LANES
            self._block = draw_block(self.key, c - c % _LANES)
        return self._block[c % _LANES]

    def uniform(self) -> float:
        """The draw's top 52 bits as (2k+1) * 2**-53: exact, so never 0.0 or
        1.0 (53 bits would round 1 - 2**-54 up to 1.0, and exponential to inf).
        Per-event code tests ``draw() < uniform_below(p)`` instead of
        ``uniform() < p``: the same outcome, one frame fewer."""
        return (self.draw() >> 12) * 2.0**-52 + 2.0**-53

    def randint(self, low: int, high: int) -> int:
        """Uniform integer in [low, high]; modulo bias is ~2**-64 here."""
        return low + self.draw() % (high - low + 1)

    def exponential(self, mean: float) -> float:
        """Inverse-CDF exponential offset; strictly positive by construction."""
        if mean <= 0:
            raise ValueError(f"mean must be positive, got {mean}")
        # -mean * log1p(-u), for the same u as uniform()
        return -mean * math.log1p(-((self.draw() >> 12) * 2.0**-52 + 2.0**-53))

    def pick_other(self, n: int, self_id: int) -> int:
        """Uniform LP id other than ``self_id`` (or self if it is alone)."""
        if n <= 1:
            return self_id
        idx = self.draw() % (n - 1)  # randint(0, n - 2), without its frame
        return idx + 1 if idx >= self_id else idx
