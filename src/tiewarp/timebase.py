"""Extended virtual time: signatures, tie-break draws, and total-order comparators.

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

Draws are unsigned 64-bit integers rather than floats in (0,1): the mapping
is order-isomorphic, bit-exact on every platform, and collides with
probability 2**-64 per pair. When two signatures are fully equal anyway, a
deterministic identity fallback keeps the order total; activations of that
fallback are counted so any residual bias is measurable.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .errors import ConfigError, MalformedSignature, SequenceCapExceeded, ZeroOffsetForbidden

LESS = -1
EQUAL = 0
GREATER = 1

DEFAULT_SEQUENCE_CAP = 64

# Fixed serialization width per tie-break value: 128 bits, so additive sums
# of up to 2**64 capped draws still round-trip bit-exactly.
TIEBREAK_HEX_WIDTH = 32


class OrderingMode(enum.Enum):
    NONE = "none"
    BIASED_RULESET = "biased"
    UNBIASED_SINGLE = "unbiased-single"
    ADDITIVE = "additive"
    LEX_SEQUENCE = "lex"

    def __init__(self, value: str):
        # whether events in this mode carry tie-break draws; a plain member
        # attribute, fixed once here, because every built event reads it
        self.uses_draws = value in ("unbiased-single", "additive", "lex")

    @classmethod
    def from_name(cls, name: str) -> "OrderingMode":
        for mode in cls:
            if mode.value == name:
                return mode
        raise ConfigError(f"unknown ordering mode {name!r}")


MODE_NAMES = tuple(mode.value for mode in OrderingMode)


@dataclass(frozen=True)
class TimeSignature:
    """Virtual timestamp plus ordered tie-break draws; the total-order key.

    ``tiebreak`` is empty in NONE and BIASED_RULESET modes (those modes do
    not consume draws), holds exactly one value in UNBIASED_SINGLE and
    ADDITIVE, and one value per zero-offset ancestor plus one in
    LEX_SEQUENCE.
    """

    timestamp: float
    tiebreak: tuple = ()

    def __post_init__(self):
        if self.timestamp < 0:
            raise MalformedSignature(f"negative timestamp {self.timestamp}")
        object.__setattr__(self, "timestamp", float(self.timestamp))
        object.__setattr__(self, "tiebreak", tuple(self.tiebreak))


class ComparatorStats:
    """Counts identity-fallback activations (expected: zero per run)."""

    __slots__ = ("fallback_activations",)

    def __init__(self):
        self.fallback_activations = 0


def _check_shape(sig: TimeSignature, mode: OrderingMode, cap: int) -> None:
    n = len(sig.tiebreak)
    if mode is OrderingMode.LEX_SEQUENCE:
        if n == 0:
            raise MalformedSignature("empty tie-break sequence in lex mode")
        if n > cap:
            raise MalformedSignature(f"tie-break sequence length {n} exceeds cap {cap}")
    elif mode in (OrderingMode.UNBIASED_SINGLE, OrderingMode.ADDITIVE):
        if n != 1:
            raise MalformedSignature(f"{mode.value} mode requires exactly one tie-break value, got {n}")


def compare_signatures(
    a: TimeSignature,
    b: TimeSignature,
    mode: OrderingMode,
    a_identity: tuple | None = None,
    b_identity: tuple | None = None,
    cap: int = DEFAULT_SEQUENCE_CAP,
    stats: ComparatorStats | None = None,
) -> int:
    """Totally order two signatures under ``mode``; returns -1, 0 or 1.

    Primary key is the timestamp, compared bit-exactly. On a timestamp tie
    LEX_SEQUENCE compares the draw sequences lexicographically (a strict
    prefix orders before its extensions); ADDITIVE and UNBIASED_SINGLE
    compare their single draw; BIASED_RULESET compares identities. If the
    tie-break content is fully equal, distinct identities break the tie
    deterministically, so 0 is returned only for an event compared against
    itself. An identity is the tuple ``(source_pe, source_lp, serial)``.
    """
    if mode is OrderingMode.NONE:
        raise ValueError("mode NONE forbids comparison of tied events")
    _check_shape(a, mode, cap)
    _check_shape(b, mode, cap)

    if a.timestamp != b.timestamp:
        return LESS if a.timestamp < b.timestamp else GREATER

    if mode is OrderingMode.BIASED_RULESET:
        if a_identity is None or b_identity is None:
            raise ValueError("biased ruleset comparison requires identities")
        if a_identity != b_identity:
            return LESS if a_identity < b_identity else GREATER
        return EQUAL

    if a.tiebreak != b.tiebreak:
        # Native tuple comparison is lexicographic with shorter-prefix-first,
        # exactly the sequence rule; single-value modes have length-1 tuples.
        return LESS if a.tiebreak < b.tiebreak else GREATER

    if a_identity is not None and b_identity is not None:
        # (source_lp, serial) is globally unique; the PE is left out because
        # it depends on how LPs are partitioned
        ka, kb = a_identity[1:], b_identity[1:]
        if ka != kb:
            if stats is not None:
                stats.fallback_activations += 1
            return LESS if ka < kb else GREATER
    return EQUAL


def derive_child_signature(
    parent: TimeSignature,
    offset: float,
    draw: int | None,
    mode: OrderingMode,
    cap: int = DEFAULT_SEQUENCE_CAP,
) -> TimeSignature:
    """Signature for an event created ``offset`` after ``parent``.

    A regular offset (> 0) starts a fresh signature: the inherited sequence
    is discarded and the new draw stands alone. A zero offset extends the
    parent: LEX_SEQUENCE appends the draw, ADDITIVE adds it to the parent's
    single value (Python ints, so deep chains cannot wrap), and
    UNBIASED_SINGLE rejects the creation outright. Either way the result
    orders strictly after the parent under ``compare_signatures``.
    """
    if offset < 0:
        raise ValueError(f"negative offset {offset}")
    if not mode.uses_draws:
        # No draw content; ordering falls to timestamps (and, for the biased
        # ruleset, identities). Useful only for those modes' kernels.
        return TimeSignature(parent.timestamp + offset)
    if draw is None:
        raise ValueError(f"mode {mode.value} requires a tie-break draw")

    if offset > 0:
        return TimeSignature(parent.timestamp + offset, (draw,))

    if mode is OrderingMode.UNBIASED_SINGLE:
        raise ZeroOffsetForbidden(
            "unbiased-single mode cannot order a zero-offset child; "
            "use additive or lex mode for models that emit zero-offset events"
        )
    if mode is OrderingMode.ADDITIVE:
        return TimeSignature(parent.timestamp, (parent.tiebreak[0] + draw,))
    # LEX_SEQUENCE
    if len(parent.tiebreak) + 1 > cap:
        raise SequenceCapExceeded(
            f"zero-offset chain would grow the tie-break sequence past cap {cap}"
        )
    return TimeSignature(parent.timestamp, parent.tiebreak + (draw,))


def derive_naive_signature(parent: TimeSignature, offset: float, draw: int) -> TimeSignature:
    """Unsafe derivation: a fresh independent draw even at zero offset.

    This reproduces the broken scheme where a zero-offset child can draw a
    lower value than already-processed events and order before them. Only
    the negative-control demos use it; the kernels surface the resulting
    CausalityViolation (sequential) or rollback livelock (optimistic).
    """
    if offset < 0:
        raise ValueError(f"negative offset {offset}")
    return TimeSignature(parent.timestamp + offset, (draw,))


def is_causal_prefix(a: TimeSignature, b: TimeSignature) -> bool:
    """True iff ``a`` is a same-timestamp strict prefix of ``b``.

    In lex mode this holds exactly when the event owning ``a`` is a
    zero-offset ancestor of the event owning ``b``.
    """
    if a.timestamp != b.timestamp:
        return False
    na, nb = len(a.tiebreak), len(b.tiebreak)
    return na < nb and b.tiebreak[:na] == a.tiebreak


def sort_key(signature: TimeSignature, identity: tuple, mode: OrderingMode) -> tuple:
    """Tuple that native comparison orders identically to compare_signatures.

    ``identity`` is ``(source_pe, source_lp, serial)``. The kernels compute
    this key once per event, when it is built. In the draw-based modes the
    identity suffix uses (source_lp, serial), never the PE id, so keys do not
    depend on how LPs are partitioned across workers.
    """
    if mode is OrderingMode.BIASED_RULESET:
        return (signature.timestamp,) + identity
    if mode is OrderingMode.NONE:
        return (signature.timestamp,)
    _, source_lp, serial = identity
    return (signature.timestamp, signature.tiebreak, source_lp, serial)


def format_timestamp(timestamp: float) -> str:
    """Shortest decimal that round-trips the float bit-exactly."""
    return repr(float(timestamp))


def format_tiebreak(tiebreak: tuple) -> str:
    """Fixed-width lowercase hex values joined by ':' (empty string if none)."""
    return ":".join(format(v, f"0{TIEBREAK_HEX_WIDTH}x") for v in tiebreak)


def format_signature(signature: TimeSignature) -> str:
    return f"{format_timestamp(signature.timestamp)}@{format_tiebreak(signature.tiebreak)}"


def parse_tiebreak(text: str) -> tuple:
    if not text:
        return ()
    return tuple(int(part, 16) for part in text.split(":"))


def parse_signature(text: str) -> TimeSignature:
    ts_text, _, tb_text = text.partition("@")
    return TimeSignature(float(ts_text), parse_tiebreak(tb_text))
