"""Deterministic, rollback-safe uniform draw streams.

Each LP has two independent keys, one for tie-breaks and one for model
randomness. Draws are counter-based (Salmon et al., SC 2011): the value at
index ``i`` is a pure function of ``(key, i)``, so any draw can be recomputed
at random access cost O(1). A tie-break is ``draw_at(key, serial)``, keyed by
its event's identity, so rollback restores nothing for it; the model stream
is a key plus a cursor, and rolling it back restores the cursor. The mixing
function is the splitmix64 finalizer over ``key + (i + 1) * GAMMA``; keys
are hashed from ``(global_seed, lp_id, purpose)`` through the same mixer,
along one chain, ``lp_keys``: a kernel hashes its seed once and each LP id
once, mixes the pair once, then mixes in each purpose's constant hash.

A stream evaluates its draws a block at a time, as counter-based generators
are meant to be: ``draw_block`` mixes eight consecutive counters in one pass
over one Python int, lane ``j`` in bits ``[128 j, 128 j + 128)``. Blocks
start at multiples of eight, so the block a stream caches is a pure function
of its key and the block index ``cursor // 8``; a cursor assigned back by
rollback needs no invalidation, and the cursor stays the whole state.

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


def lp_keys(seed_hash: int, lp_id: int) -> tuple[int, int]:
    """An LP's ``(tiebreak, model)`` keys, where ``seed_hash = mix64(global_seed)``:
    four finalizers, for the LP id, the (seed, LP) pair and each purpose."""
    k = mix64(seed_hash ^ mix64(lp_id + _LP_SALT))
    return mix64(k ^ _TIEBREAK_HASH), mix64(k ^ _MODEL_HASH)


# draw_block's lanes: eight 128-bit slots of one int, each wide enough for
# the product of a 64-bit value and a 64-bit constant
_LANES = 8
_ONES = sum(1 << (128 * j) for j in range(_LANES))
_LANE_MASK = _MASK64 * _ONES
# lane j's counter step past lane 0, j * GAMMA mod 2**64
_LANE_STEPS = sum((j * _GAMMA & _MASK64) << (128 * j) for j in range(_LANES))
# the lanes' low words, in lane order, among the int's native-order words
_LOW_WORDS = slice(None, None, 2 if sys.byteorder == "little" else -2)


def draw_block(key: int, start: int) -> array:
    """``draw_at(key, start + j)`` for the eight lanes ``j``, in one pass.

    The counter is reduced mod 2**64 before it is spread into the lanes, so
    every lane holds a 64-bit value; each shifted term is masked before its
    xor, so no lane's bits reach its neighbour, and a 64-bit lane times a
    64-bit constant fills its 128-bit slot without carrying out of it. The
    block is an ``array('Q')`` rather than eight int objects: a stream keeps
    its block alive, and keeping 8,192 ints alive on ``phold-seq`` slowed
    the trace digest by about 4% and cost half a MiB (2-vCPU x86 VM).
    """
    z = (((key + (start + 1) * _GAMMA) & _MASK64) * _ONES + _LANE_STEPS) & _LANE_MASK
    z = ((z ^ ((z >> 30) & _LANE_MASK)) * _MIX1) & _LANE_MASK
    z = ((z ^ ((z >> 27) & _LANE_MASK)) * _MIX2) & _LANE_MASK
    z ^= (z >> 31) & _LANE_MASK
    return array("Q", z.to_bytes(16 * _LANES, sys.byteorder))[_LOW_WORDS]


def draw_at(key: int, index: int) -> int:
    """The stream's value at cursor ``index``; pure in (key, index).

    ``mix64(key + (index + 1) * GAMMA)`` with ``mix64`` inlined: every built
    event in a draw-based mode takes one tie-break here, in one frame.
    """
    z = (key + (index + 1) * _GAMMA) & _MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return z ^ (z >> 31)


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
        if c >> 3 != self._block_index:  # a block holds _LANES = 8 draws
            self._block_index = c >> 3
            self._block = draw_block(self.key, c & -8)
        return self._block[c & 7]

    def uniform(self) -> float:
        """The draw's top 52 bits as (2k+1) * 2**-53: exact, so never 0.0 or
        1.0 (53 bits would round 1 - 2**-54 up to 1.0, and exponential to inf)."""
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
        idx = self.randint(0, n - 2)
        return idx + 1 if idx >= self_id else idx
