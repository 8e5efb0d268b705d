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
specification the tests check ``sort_key`` against.
"""

from __future__ import annotations

import enum
import operator
from typing import NamedTuple

from .errors import ConfigError, SequenceCapExceeded, ZeroOffsetForbidden

DEFAULT_SEQUENCE_CAP = 64

# Fixed serialization width per tie-break value: 128 bits, so additive sums
# of up to 2**64 capped draws still round-trip bit-exactly.
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
        # whether events in this mode carry tie-break draws; a plain member
        # attribute, fixed once here, because every built event reads it
        self.uses_draws = value not in ("none", "biased")
        # after(later, earlier): whether a key may follow another in commit
        # order, for the commit check and the audit. Keys of mode none are
        # bare timestamps, so ties may commit either way.
        self.after = operator.ge if value == "none" else operator.gt

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

    if parent is None or timestamp != parent.timestamp or mode is OrderingMode.NAIVE:
        return timestamp, (draw,)

    if mode is OrderingMode.UNBIASED_SINGLE:
        raise ZeroOffsetForbidden(
            "unbiased-single mode cannot order a zero-offset child; "
            "use additive or lex mode for models that emit zero-offset events"
        )
    if mode is OrderingMode.ADDITIVE:
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
    this key once per event, when it is built. In the draw-based modes the
    identity suffix is (source_lp, serial), never the PE id, so keys do not
    depend on how LPs are partitioned across workers.
    """
    if mode.uses_draws:
        return (ev.timestamp, ev.tiebreak, ev.source_lp, ev.serial)
    if mode is OrderingMode.NONE:
        return (ev.timestamp,)
    return (ev.timestamp, ev.source_pe, ev.source_lp, ev.serial)


def format_timestamp(timestamp: float) -> str:
    """Shortest decimal that round-trips the float bit-exactly."""
    return repr(float(timestamp))


def format_tiebreak(tiebreak: tuple) -> str:
    """Fixed-width lowercase hex values joined by ':' (empty string if none).

    The trace encoder calls this once per committed event, so the common
    single draw takes one %-format and no join.
    """
    if len(tiebreak) == 1:
        return TIEBREAK_HEX % tiebreak[0]
    return ":".join([TIEBREAK_HEX % v for v in tiebreak])


def format_signature(signature) -> str:
    return f"{format_timestamp(signature.timestamp)}@{format_tiebreak(signature.tiebreak)}"

