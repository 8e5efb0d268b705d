"""Extended virtual time: signatures, tie-break draws, and the total-order key.

A plain virtual timestamp only partially orders a simulation: simultaneous
events are incomparable. This module extends each event's key with an ordered
sequence of uniform random tie-break draws so that every pair of events is
comparable, deterministically, under one of several ordering modes:

* ``NONE``            ties stay incomparable (negative-control runs only)
* ``BIASED_RULESET``  ties broken by source PE id / LP id / serial
* ``UNBIASED_SINGLE`` ties broken by one fresh uniform draw; zero-offset
                      event creation is rejected
* ``ADDITIVE``        a zero-offset child's value is its parent's value plus
                      a fresh draw (monotone, but the sum is Irwin-Hall
                      distributed, which biases deep descendants late)
* ``LEX_SEQUENCE``    a zero-offset child appends a fresh draw to its
                      parent's sequence; sequences compare lexicographically
                      with a strict prefix ordering before its extensions
* ``NAIVE``           one fresh independent draw per event, even at zero
                      offset, so a child can order before its parent
                      (negative-control runs only)

Draws are unsigned 64-bit integers rather than floats in (0,1): the mapping
is order-isomorphic, bit-exact on every platform, and collides with
probability 2**-64 per pair. When two signatures are fully equal anyway, a
deterministic identity fallback keeps the order total.

An event carries its signature as its own ``timestamp`` and ``tiebreak``
fields, so every function here that reads a signature also takes an event.
The runtime order is ``sort_key``'s tuple under native comparison; the
paper's pairwise comparator lives in ``tests/signature_oracle.py``, the
specification the tests check ``sort_key`` against. In the draw modes that
tuple is flat, ``(timestamp, *tiebreak, -1, source_lp, serial)``: every
draw and every additive sum is an int >= 0, so the ``-1`` that ends the
draws sorts a strict prefix before its extensions, and a comparison of two
tied keys never descends into a nested tuple.
"""

from __future__ import annotations

import enum
import operator
from typing import NamedTuple

from .errors import ConfigError, SequenceCapExceeded, ZeroOffsetForbidden

DEFAULT_SEQUENCE_CAP = 64

# Serialization width per tie-break value: 32 lowercase hex digits, the
# 16-byte big-endian encoding, so additive sums of up to 2**64 capped draws
# still round-trip bit-exactly. A wider value is spelled in full, and a
# negative one with its sign, as TIEBREAK_HEX spells them.
TIEBREAK_HEX_WIDTH = 32
TIEBREAK_HEX = f"%0{TIEBREAK_HEX_WIDTH}x"


class OrderingMode(enum.Enum):
    NONE = "none"
    BIASED_RULESET = "biased"
    UNBIASED_SINGLE = "unbiased-single"
    ADDITIVE = "additive"
    LEX_SEQUENCE = "lex"
    NAIVE = "naive"

    def __init__(self, value: str):
        """Fix the mode's flags once, as plain member attributes.

        ``derive_child_signature`` and ``sort_key`` run once per built event
        and read only these: a member attribute such as ``mode.uses_draws``
        costs about 13 ns, while a load of ``OrderingMode.<MEMBER>`` goes
        through ``EnumType.__getattr__`` and costs about 120 ns on CPython
        3.11.
        """
        # whether events in this mode carry tie-break draws
        self.uses_draws = value not in ("none", "biased")
        # whether keys are bare timestamps, which leave ties incomparable
        self.bare_keys = value == "none"
        # how a child simultaneous with its parent derives its tie-break:
        # a fresh draw alone, a refusal, or the parent's value plus the draw;
        # lex, the remaining draw mode, appends the draw
        self.fresh_ties = value == "naive"
        self.forbids_ties = value == "unbiased-single"
        self.adds_ties = value == "additive"
        # after(later, earlier): whether a key may follow another in commit
        # order, for the optimistic kernel's commit check. Keys of mode none
        # are bare timestamps, so ties may commit either way.
        self.after = operator.ge if self.bare_keys else operator.gt

    @classmethod
    def from_name(cls, name: str) -> "OrderingMode":
        for mode in cls:
            if mode.value == name:
                return mode
        raise ConfigError(f"unknown ordering mode {name!r}")


MODE_NAMES = tuple(mode.value for mode in OrderingMode)


class TimeSignature(NamedTuple):
    """Virtual timestamp plus ordered tie-break draws, as a plain record.

    ``tiebreak`` is empty in NONE and BIASED_RULESET modes (those modes do
    not consume draws), holds exactly one value in UNBIASED_SINGLE, ADDITIVE
    and NAIVE, and one value per zero-offset ancestor plus one in
    LEX_SEQUENCE. The kernels build none: an event carries the two fields.
    """

    timestamp: float
    tiebreak: tuple = ()


def derive_child_signature(
    parent,
    offset: float,
    draw: int | None,
    mode: OrderingMode,
    cap: int = DEFAULT_SEQUENCE_CAP,
) -> tuple[float, tuple]:
    """``(timestamp, tiebreak)`` of an event created ``offset`` after ``parent``.

    The kernels derive one pair per built event and copy both fields into
    the ``Event``. A child at a new timestamp starts a fresh signature, its
    draw alone; so does a seed (``parent`` None) at time ``offset``. A child
    simultaneous with its parent (a zero offset, or one float rounding
    absorbs) extends it: LEX_SEQUENCE appends the draw, ADDITIVE adds it to
    the parent's single value (Python ints, so deep chains cannot wrap), and
    UNBIASED_SINGLE rejects the creation outright. Either way the result
    orders strictly after the parent under ``sort_key``. NAIVE is the broken
    scheme the others replace: its simultaneous child also stands alone on a
    fresh draw, which can order it before its parent.
    """
    if not offset >= 0:  # NaN fails every comparison
        raise ValueError(f"offset {offset} is negative or NaN")
    if parent is None:
        timestamp = float(offset)
    else:
        timestamp = float(parent.timestamp + offset)
    if not mode.uses_draws:
        # No draw content; ordering falls to timestamps (and, for the biased
        # ruleset, identities). Useful only for those modes' kernels.
        return timestamp, ()
    if draw is None:
        raise ValueError(f"mode {mode.value} requires a tie-break draw")

    if parent is None or timestamp != parent.timestamp or mode.fresh_ties:
        return timestamp, (draw,)

    if mode.forbids_ties:
        raise ZeroOffsetForbidden(
            "unbiased-single mode cannot order a zero-offset child; "
            "use additive or lex mode for models that emit zero-offset events"
        )
    if mode.adds_ties:
        return timestamp, (parent.tiebreak[0] + draw,)
    # LEX_SEQUENCE
    if len(parent.tiebreak) + 1 > cap:
        raise SequenceCapExceeded(
            f"zero-offset chain would grow the tie-break sequence past cap {cap}"
        )
    return timestamp, parent.tiebreak + (draw,)


def sort_key(ev, mode: OrderingMode) -> tuple:
    """Tuple whose native comparison is the total order of ``mode``.

    ``ev`` is an ``Event``, or anything with its ``timestamp``, ``tiebreak``,
    ``source_pe``, ``source_lp`` and ``serial`` fields. The kernels compute
    this key once per event, when it is built.

    In the draw-based modes the key is one flat tuple, ``(timestamp,
    *tiebreak, -1, source_lp, serial)``, so comparing two tied keys reads
    their draws in place rather than in a nested tuple. Every draw and every
    additive sum is an int >= 0, so the ``-1`` that ends the draws sorts
    below any continuation: a strict prefix orders before its extensions,
    the sequence rule, and two keys are equal exactly when their signatures
    and identities are. The identity suffix is (source_lp, serial), never
    the PE id, so keys do not depend on how LPs are partitioned across
    workers. A single draw takes its own branch, because the star-unpack
    alone measured slower on tie-free runs. Mode none keys by the bare
    timestamp and mode biased by ``(timestamp, source_pe, source_lp,
    serial)``.
    """
    if mode.uses_draws:
        tiebreak = ev.tiebreak
        if len(tiebreak) == 1:
            return (ev.timestamp, tiebreak[0], -1, ev.source_lp, ev.serial)
        return (ev.timestamp, *tiebreak, -1, ev.source_lp, ev.serial)
    if mode.bare_keys:
        return (ev.timestamp,)
    return (ev.timestamp, ev.source_pe, ev.source_lp, ev.serial)


def format_timestamp(timestamp: float) -> str:
    """Shortest decimal that round-trips the float bit-exactly."""
    return repr(float(timestamp))


def format_tiebreak(tiebreak: tuple) -> str:
    """Lowercase hex values joined by ':' (empty string if none).

    Each value is its 16-byte big-endian encoding in 32 digits, and one
    ``bytes.hex`` call spells and separates them all. A value with no such
    encoding (at least 2**128, or negative) raises OverflowError, and then
    every value goes through ``TIEBREAK_HEX``, which spells a value that
    fits the same way and a wider one in full.
    """
    try:
        return b"".join([v.to_bytes(16, "big") for v in tiebreak]).hex(":", 16)
    except OverflowError:
        return ":".join([TIEBREAK_HEX % v for v in tiebreak])


def format_signature(signature) -> str:
    return f"{format_timestamp(signature.timestamp)}@{format_tiebreak(signature.tiebreak)}"

