"""The paper's pairwise signature comparator, kept as a test oracle.

The kernels order events by ``timebase.sort_key`` tuples under native
comparison. This module states the same order the way the paper does, one
pair at a time and one mode at a time, so the tests can check the tuples
against it. A signature is anything with ``timestamp`` and ``tiebreak``: a
``TimeSignature`` or an ``Event``. ``audit_trace`` checks a committed trace
by this comparator, so it shares no key function with the kernels it audits.
"""

from tiewarp.errors import TieWarpError
from tiewarp.timebase import DEFAULT_SEQUENCE_CAP, OrderingMode

LESS = -1
EQUAL = 0
GREATER = 1


class MalformedSignature(TieWarpError):
    """A signature does not have the shape its mode requires."""


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


def _may_precede(a, b, mode: OrderingMode, cap: int) -> bool:
    """Whether event ``a`` may commit right before event ``b``. Mode none
    leaves ties unordered, so its events need only non-decreasing
    timestamps."""
    if mode is OrderingMode.NONE:
        return a.timestamp <= b.timestamp
    return compare_signatures(a, b, mode, (a.source_pe, a.source_lp, a.serial),
                              (b.source_pe, b.source_lp, b.serial), cap) == LESS


def audit_trace(trace, mode_name: str, seq_cap: int = DEFAULT_SEQUENCE_CAP) -> dict:
    """Causal audit of a committed trace.

    Checks that each committed event orders after the one before under
    ``compare_signatures``, or in mode none that timestamps never decrease,
    and that every event with a recorded parent commits after that parent.
    It reads each event's own fields, never the key the kernel stored.
    ``seq_cap`` is the run's cap on the tie-break draws of one signature.
    """
    mode = OrderingMode.from_name(mode_name)
    violations = []
    seen = set()
    last = None
    for index, ev in enumerate(trace.committed):
        if last is not None and not _may_precede(last, ev, mode, seq_cap):
            violations.append({"kind": "order-regression", "commit_index": index})
        last = ev
        parent = (ev.parent_lp, ev.parent_serial)
        if ev.parent_lp is not None and parent not in seen:
            violations.append({"kind": "parent-not-committed",
                               "commit_index": index,
                               "parent": list(parent)})
        seen.add((ev.source_lp, ev.serial))
    return {"events": len(trace.committed), "violations": violations}
