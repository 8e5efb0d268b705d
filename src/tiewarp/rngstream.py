"""Deterministic, rollback-safe uniform draw streams.

Each LP owns two independent streams, one dedicated to tie-break values and
one for model randomness. A stream is a counter-mode construction: the value
at cursor index ``i`` is a pure function of ``(key, i)``, so rolling a
stream back is nothing more than restoring the cursor, and any draw can be
recomputed at random access cost O(1). The mixing function is the splitmix64
finalizer over ``key + (i + 1) * GAMMA``; stream keys are derived by hashing
``(global_seed, lp_id, purpose)`` through the same mixer, which makes stream
creation O(1) for any number of LPs.

The generator family and version are recorded in every trace header so a
digest can never silently mix outputs of different generators.
"""

from __future__ import annotations

import enum
import math

import numpy as np

GENERATOR_NAME = "splitmix64-counter"
GENERATOR_VERSION = 1

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


class Purpose(enum.IntEnum):
    TIEBREAK = 1
    MODEL = 2


def mix64(z: int) -> int:
    """splitmix64 finalizer: a 64-bit avalanche permutation."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return z ^ (z >> 31)


def derive_stream_key(global_seed: int, lp_id: int, purpose: Purpose) -> int:
    """Hash (global_seed, lp_id, purpose) into an independent stream key."""
    k = mix64(global_seed)
    k = mix64(k ^ mix64(lp_id + 0x632BE59BD9B4E019))
    k = mix64(k ^ mix64(int(purpose) * 0xD6E8FEB86659FD93))
    return k


def draw_at(key: int, index: int) -> int:
    """The stream's value at cursor ``index``; pure in (key, index)."""
    return mix64(key + (index + 1) * _GAMMA)


def draws_array(key: int, start: int, count: int) -> np.ndarray:
    """Vectorized draw_at over indices [start, start+count); used by the
    statistical tests. Bit-identical to the scalar path."""
    idx = np.arange(start + 1, start + count + 1, dtype=np.uint64)
    z = np.uint64(key & _MASK64) + idx * np.uint64(_GAMMA)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
    return z ^ (z >> np.uint64(31))


def to_unit_interval(value: int) -> float:
    """Map a 64-bit draw into the open interval (0,1).

    Keeps the top 52 bits and centers the lattice: every result is the
    exactly representable (2k+1) * 2**-53, so the endpoints are 2**-53 and
    1 - 2**-53 and no rounding can reach 0.0 or 1.0. (With 53 bits the top
    value 1 - 2**-54 would round-to-even up to exactly 1.0 and the
    exponential sampler would return inf.)
    """
    return (value >> 12) * 2.0**-52 + 2.0**-53


class DrawStream:
    """One LP-owned stream: a key plus a cursor.

    Snapshots are plain cursor integers and may be copied freely; two
    streams never share a key, so there is nothing else to synchronize.
    """

    __slots__ = ("key", "cursor")

    def __init__(self, key: int, cursor: int = 0):
        self.key = key
        self.cursor = cursor

    @classmethod
    def for_lp(cls, global_seed: int, lp_id: int, purpose: Purpose) -> "DrawStream":
        return cls(derive_stream_key(global_seed, lp_id, purpose))

    def draw(self) -> int:
        value = draw_at(self.key, self.cursor)
        self.cursor += 1
        return value

    def uniform(self) -> float:
        return to_unit_interval(self.draw())

    def randint(self, low: int, high: int) -> int:
        """Uniform integer in [low, high]; modulo bias is ~2**-64 here."""
        return low + self.draw() % (high - low + 1)

    def exponential(self, mean: float) -> float:
        """Inverse-CDF exponential offset; strictly positive by construction."""
        if mean <= 0:
            raise ValueError(f"mean must be positive, got {mean}")
        return -mean * math.log1p(-self.uniform())

    def pick_other(self, n: int, self_id: int) -> int:
        """Uniform LP id other than ``self_id`` (or self if it is alone)."""
        if n <= 1:
            return self_id
        idx = self.randint(0, n - 2)
        return idx + 1 if idx >= self_id else idx

    def snapshot(self) -> int:
        return self.cursor

    def restore(self, cursor_snapshot: int) -> None:
        self.cursor = cursor_snapshot
