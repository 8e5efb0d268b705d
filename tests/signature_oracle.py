"""The paper's pairwise signature comparator, kept as a test oracle.

The kernels order events by ``timebase.sort_key`` tuples under native
comparison. This module states the same order the way the paper does, one
pair at a time and one mode at a time, so the tests can check the tuples
against it. A signature is anything with ``timestamp`` and ``tiebreak``: a
``TimeSignature`` or an ``Event``.
"""

from tiewarp.errors import MalformedSignature
from tiewarp.timebase import DEFAULT_SEQUENCE_CAP, OrderingMode

LESS = -1
EQUAL = 0
GREATER = 1


def _check_shape(sig, mode: OrderingMode, cap: int) -> None:
    n = len(sig.tiebreak)
    if mode is OrderingMode.LEX_SEQUENCE:
        if n == 0:
            raise MalformedSignature("empty tie-break sequence in lex mode")
        if n > cap:
            raise MalformedSignature(f"tie-break sequence length {n} exceeds cap {cap}")
    elif mode.uses_draws:
        if n != 1:
            raise MalformedSignature(f"{mode.value} mode requires exactly one tie-break value, got {n}")


def compare_signatures(
    a,
    b,
    mode: OrderingMode,
    a_identity: tuple | None = None,
    b_identity: tuple | None = None,
    cap: int = DEFAULT_SEQUENCE_CAP,
) -> int:
    """Totally order two signatures under ``mode``; returns -1, 0 or 1.

    Primary key is the timestamp, compared bit-exactly. On a timestamp tie
    LEX_SEQUENCE compares the draw sequences lexicographically (a strict
    prefix orders before its extensions); the single-value modes compare
    their one draw; BIASED_RULESET compares identities. If the
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
            return LESS if ka < kb else GREATER
    return EQUAL


def is_causal_prefix(a, b) -> bool:
    """True iff ``a`` is a same-timestamp strict prefix of ``b``.

    In lex mode this holds exactly when the event owning ``a`` is a
    zero-offset ancestor of the event owning ``b``.
    """
    if a.timestamp != b.timestamp:
        return False
    na, nb = len(a.tiebreak), len(b.tiebreak)
    return na < nb and b.tiebreak[:na] == a.tiebreak
