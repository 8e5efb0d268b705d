"""Deterministic, rollback-safe uniform draw streams.

Each LP has two independent keys, one for tie-breaks and one for model
randomness. Draws are counter-based (Salmon et al., SC 2011): the value at
index ``i`` is a pure function of ``(key, i)``, so any draw can be recomputed
at random access cost O(1). A tie-break is ``draw_at(key, serial)``, keyed by
its event's identity, so rollback restores nothing for it; the model stream
is a key plus a cursor, and rolling it back restores the cursor. The mixing
function is the splitmix64 finalizer over ``key + (i + 1) * GAMMA``; keys
are hashed from ``(global_seed, lp_id, purpose)`` through the same mixer.

The generator family and version are recorded in every run summary so a
digest can never silently mix outputs of different generators.
"""

from __future__ import annotations

import enum
import math

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
    """The stream's value at cursor ``index``; pure in (key, index).

    ``mix64(key + (index + 1) * GAMMA)`` with ``mix64`` inlined: every built
    event in a draw-based mode takes one tie-break here, in one frame.
    """
    z = (key + (index + 1) * _GAMMA) & _MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return z ^ (z >> 31)


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

    The cursor is the stream's whole mutable state: rollback saves it and
    assigns it back. Two streams never share a key, so there is nothing
    else to synchronize.
    """

    __slots__ = ("key", "cursor")

    def __init__(self, key: int, cursor: int = 0):
        self.key = key
        self.cursor = cursor

    @classmethod
    def for_lp(cls, global_seed: int, lp_id: int, purpose: Purpose) -> "DrawStream":
        return cls(derive_stream_key(global_seed, lp_id, purpose))

    def draw(self) -> int:
        # draw_at(self.key, self.cursor), with mix64 inlined: one frame per draw
        z = (self.key + (self.cursor + 1) * _GAMMA) & _MASK64
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        self.cursor += 1
        return z ^ (z >> 31)

    def uniform(self) -> float:
        # to_unit_interval(self.draw()), inlined
        return (self.draw() >> 12) * 2.0**-52 + 2.0**-53

    def randint(self, low: int, high: int) -> int:
        """Uniform integer in [low, high]; modulo bias is ~2**-64 here."""
        return low + self.draw() % (high - low + 1)

    def exponential(self, mean: float) -> float:
        """Inverse-CDF exponential offset; strictly positive by construction."""
        if mean <= 0:
            raise ValueError(f"mean must be positive, got {mean}")
        # -mean * log1p(-to_unit_interval(self.draw())), inlined
        return -mean * math.log1p(-((self.draw() >> 12) * 2.0**-52 + 2.0**-53))

    def pick_other(self, n: int, self_id: int) -> int:
        """Uniform LP id other than ``self_id`` (or self if it is alone)."""
        if n <= 1:
            return self_id
        idx = self.randint(0, n - 2)
        return idx + 1 if idx >= self_id else idx
