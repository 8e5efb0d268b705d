"""Signature comparison: ordering laws, derivations, serialization."""

import random

import pytest

from tiewarp.errors import SequenceCapExceeded, ZeroOffsetForbidden
from tiewarp.timebase import (
    DEFAULT_SEQUENCE_CAP,
    MODE_NAMES,
    OrderingMode,
    TimeSignature,
    derive_child_signature,
    format_signature,
    format_tiebreak,
    format_timestamp,
    sort_key,
)
from tiewarp.trace import Event

from signature_oracle import EQUAL, GREATER, LESS, compare_signatures, is_causal_prefix

DRAW_MODES = (OrderingMode.UNBIASED_SINGLE, OrderingMode.ADDITIVE, OrderingMode.LEX_SEQUENCE)


def lex_oracle(a, b):
    """Element-by-element lexicographic comparison with strict-prefix-first.

    Written independently of the implementation (which leans on Python's
    native tuple ordering) so the two can check each other.
    """
    i = 0
    while i < len(a) and i < len(b):
        if a[i] < b[i]:
            return LESS
        if a[i] > b[i]:
            return GREATER
        i += 1
    if len(a) == len(b):
        return EQUAL
    return LESS if len(a) < len(b) else GREATER


# Draws at the edges of the draw range: tie-breaks drawn from these share
# leading draws, and one is often a strict prefix of another.
EDGE_DRAWS = (0, 1, 2 ** 64 - 1)


def rand_tiebreak(rng, max_len=4, values=None):
    # length >= 1: the comparator rejects empty sequences in lex mode;
    # draws from all of 2**64, or from ``values`` when it is given
    n = 1 + rng.randrange(max_len)
    if values is None:
        return tuple(rng.randrange(2 ** 64) for _ in range(n))
    return tuple(rng.choice(values) for _ in range(n))


def rand_identity(rng):
    return (rng.randrange(4), rng.randrange(8), rng.randrange(100))


def test_mode_names_round_trip():
    assert set(MODE_NAMES) == {"none", "biased", "unbiased-single", "additive",
                               "lex", "naive"}
    for name in MODE_NAMES:
        assert OrderingMode.from_name(name).value == name


def test_mode_from_name_rejects_unknown():
    from tiewarp.errors import ConfigError
    with pytest.raises(ConfigError):
        OrderingMode.from_name("alphabetical")


def test_signature_validation():
    sig = TimeSignature(1.5, (3, 4))
    assert sig.timestamp == 1.5
    assert sig.tiebreak == (3, 4)
    # signatures are values: equal content, equal signature and hash
    same = TimeSignature(1.5, (3, 4))
    assert same == sig and hash(same) == hash(sig)
    assert TimeSignature(2, (5,)) == TimeSignature(2.0, (5,))
    assert sig != TimeSignature(1.5, (3,)) and sig != TimeSignature(2.5, (3, 4))
    assert {sig, TimeSignature(1.5, (3, 4)), TimeSignature(1.5)} == {sig, TimeSignature(1.5)}
    assert repr(sig) == "TimeSignature(timestamp=1.5, tiebreak=(3, 4))"


def test_timestamp_dominates_tiebreak():
    lo = TimeSignature(1.0, (2 ** 64 - 1,))
    hi = TimeSignature(2.0, (0,))
    for mode in DRAW_MODES:
        assert compare_signatures(lo, hi, mode) == LESS
        assert compare_signatures(hi, lo, mode) == GREATER


def test_none_mode_refuses_to_compare():
    a = TimeSignature(1.0)
    with pytest.raises(ValueError):
        compare_signatures(a, a, OrderingMode.NONE)


def test_lex_matches_independent_oracle():
    rng = random.Random(0xC0FFEE)
    mode = OrderingMode.LEX_SEQUENCE
    for _ in range(5000):
        ta, tb = rand_tiebreak(rng), rand_tiebreak(rng)
        a, b = TimeSignature(1.0, ta), TimeSignature(1.0, tb)
        want = lex_oracle(ta, tb)
        if want == EQUAL:
            continue  # equal tiebreaks fall through to the identity fallback
        assert compare_signatures(a, b, mode) == want


def test_lex_prefix_sorts_before_extension():
    rng = random.Random(7)
    mode = OrderingMode.LEX_SEQUENCE
    for _ in range(2000):
        prefix = rand_tiebreak(rng, max_len=3)
        ext = prefix + tuple(rng.randrange(2 ** 64) for _ in range(1 + rng.randrange(3)))
        a = TimeSignature(2.0, prefix)
        b = TimeSignature(2.0, ext)
        assert compare_signatures(a, b, mode) == LESS
        assert compare_signatures(b, a, mode) == GREATER
        assert is_causal_prefix(a, b)
        assert not is_causal_prefix(b, a)


def test_worked_sequence_example():
    # [5, 3, 9, 3] against [5, 3, 4, 6]: the third element decides.
    s1 = TimeSignature(1.0, (5, 3, 9, 3))
    s2 = TimeSignature(1.0, (5, 3, 4, 6))
    assert compare_signatures(s2, s1, OrderingMode.LEX_SEQUENCE) == LESS


def test_biased_mode_uses_source_ruleset():
    sig = TimeSignature(3.0)
    a = (0, 5, 9)
    b = (1, 0, 0)
    mode = OrderingMode.BIASED_RULESET
    assert compare_signatures(sig, sig, mode, a_identity=a, b_identity=b) == LESS
    assert compare_signatures(sig, sig, mode, a_identity=b, b_identity=a) == GREATER
    same_pe_a = (0, 2, 7)
    same_pe_b = (0, 2, 8)
    assert compare_signatures(sig, sig, mode,
                              a_identity=same_pe_a, b_identity=same_pe_b) == LESS


def test_identity_fallback_counts_activations():
    sig = TimeSignature(1.0, (42,))
    a = (0, 1, 5)
    b = (0, 2, 5)
    got = compare_signatures(sig, sig, OrderingMode.LEX_SEQUENCE,
                             a_identity=a, b_identity=b)
    assert got == LESS
    # comparing an event against itself is EQUAL, not a fallback activation
    got = compare_signatures(sig, sig, OrderingMode.LEX_SEQUENCE,
                             a_identity=a, b_identity=a)
    assert got == EQUAL


@pytest.mark.parametrize("mode", DRAW_MODES)
def test_comparator_laws_small(mode):
    rng = random.Random(hash(mode.value) & 0xFFFF)
    sigs = []
    for _ in range(60):
        if mode is OrderingMode.UNBIASED_SINGLE:
            tb = (rng.randrange(2 ** 64),)
        elif mode is OrderingMode.ADDITIVE:
            tb = (rng.randrange(2 ** 66),)
        else:
            tb = rand_tiebreak(rng)
        sigs.append((TimeSignature(float(rng.randrange(3)), tb), rand_identity(rng)))
    for _ in range(4000):
        (a, ia), (b, ib), (c, ic) = (rng.choice(sigs) for _ in range(3))
        ab = compare_signatures(a, b, mode, a_identity=ia, b_identity=ib)
        ba = compare_signatures(b, a, mode, a_identity=ib, b_identity=ia)
        assert ab == -ba  # antisymmetry, and totality: a definite answer
        bc = compare_signatures(b, c, mode, a_identity=ib, b_identity=ic)
        ac = compare_signatures(a, c, mode, a_identity=ia, b_identity=ic)
        if ab == bc != EQUAL:
            assert ac == ab  # transitivity
        if ab == EQUAL:
            assert ia[1:] == ib[1:]


@pytest.mark.parametrize("mode", DRAW_MODES)
def test_sort_key_agrees_with_comparator(mode):
    rng = random.Random(1234 + len(mode.value))
    # wide draws never share a leading draw; edge draws do, and lex
    # tie-breaks of edge draws are often strict prefixes of one another,
    # the case the end marker of the flat key orders
    for values in (None, EDGE_DRAWS):
        for _ in range(3000):
            if mode is OrderingMode.LEX_SEQUENCE:
                ta, tb = rand_tiebreak(rng, values=values), rand_tiebreak(rng, values=values)
            elif values is None:
                ta, tb = (rng.randrange(2 ** 64),), (rng.randrange(2 ** 64),)
            else:
                ta, tb = (rng.choice(values),), (rng.choice(values),)
            sa, sb = float(rng.randrange(2)), float(rng.randrange(2))
            ia, ib = rand_identity(rng), rand_identity(rng)
            a, b = Event(*ia, 0, sa, ta), Event(*ib, 0, sb, tb)
            cmp_result = compare_signatures(a, b, mode, a_identity=ia, b_identity=ib)
            ka, kb = sort_key(a, mode), sort_key(b, mode)
            if cmp_result == LESS:
                assert ka < kb
            elif cmp_result == GREATER:
                assert ka > kb
            else:
                assert ka == kb


def test_sort_key_ignores_pe_for_draw_modes():
    a = Event(0, 3, 1, 0, 1.0, (9,))
    b = Event(7, 3, 1, 0, 1.0, (9,))  # same LP and serial, different PE
    for mode in DRAW_MODES:
        assert sort_key(a, mode) == sort_key(b, mode)
    assert sort_key(a, OrderingMode.BIASED_RULESET) != sort_key(
        b, OrderingMode.BIASED_RULESET)


def test_derive_regular_offset_all_draw_modes():
    parent = TimeSignature(2.0, (11, 22))
    for mode in DRAW_MODES:
        timestamp, tiebreak = derive_child_signature(parent, 1.5, 77, mode,
                                                     DEFAULT_SEQUENCE_CAP)
        assert timestamp == 3.5
        assert tiebreak == (77,)


def test_derive_zero_offset_per_mode():
    parent = TimeSignature(2.0, (100,))
    with pytest.raises(ZeroOffsetForbidden):
        derive_child_signature(parent, 0.0, 5, OrderingMode.UNBIASED_SINGLE,
                               DEFAULT_SEQUENCE_CAP)
    timestamp, tiebreak = derive_child_signature(parent, 0.0, 5, OrderingMode.ADDITIVE,
                                                 DEFAULT_SEQUENCE_CAP)
    assert timestamp == 2.0 and tiebreak == (105,)
    timestamp, tiebreak = derive_child_signature(parent, 0.0, 5, OrderingMode.LEX_SEQUENCE,
                                                 DEFAULT_SEQUENCE_CAP)
    assert timestamp == 2.0 and tiebreak == (100, 5)


def test_additive_child_never_sorts_before_parent():
    rng = random.Random(99)
    for _ in range(2000):
        parent = TimeSignature(1.0, (rng.randrange(2 ** 64),))
        draw = rng.randrange(2 ** 64)
        _, tiebreak = derive_child_signature(parent, 0.0, draw, OrderingMode.ADDITIVE,
                                             DEFAULT_SEQUENCE_CAP)
        assert tiebreak[0] >= parent.tiebreak[0]


def test_sequence_cap_enforced():
    sig = TimeSignature(1.0, tuple(range(4)))
    with pytest.raises(SequenceCapExceeded):
        derive_child_signature(sig, 0.0, 9, OrderingMode.LEX_SEQUENCE, 4)
    _, grown = derive_child_signature(sig, 0.0, 9, OrderingMode.LEX_SEQUENCE, 5)
    assert len(grown) == 5


def test_naive_derivation_forgets_parent():
    parent = TimeSignature(2.0, (500,))
    timestamp, tiebreak = derive_child_signature(parent, 0.0, 3, OrderingMode.NAIVE)
    assert timestamp == 2.0
    assert tiebreak == (3,)  # fresh draw, parent prefix discarded


def test_non_draw_modes_carry_empty_tiebreak():
    parent = TimeSignature(2.0, ())
    for mode in (OrderingMode.NONE, OrderingMode.BIASED_RULESET):
        _, tiebreak = derive_child_signature(parent, 1.0, 123, mode, DEFAULT_SEQUENCE_CAP)
        assert tiebreak == ()


def parse_signature(text):
    ts_text, _, tb_text = text.partition("@")
    return TimeSignature(float(ts_text), tuple(int(v, 16) for v in tb_text.split(":") if v))


def test_serialization_round_trip():
    rng = random.Random(5)
    for _ in range(500):
        sig = TimeSignature(rng.random() * 100, rand_tiebreak(rng))
        text = format_signature(sig)
        back = parse_signature(text)
        assert back == sig
    assert parse_signature(format_signature(TimeSignature(1.0, ()))) == TimeSignature(1.0, ())


def test_hex_serialization_is_fixed_width_and_order_preserving():
    rng = random.Random(17)
    values = [rng.randrange(2 ** 64) for _ in range(300)] + [0, 1, 2 ** 64 - 1]
    rendered = [format_tiebreak((v,)) for v in values]
    assert all(len(r) == 32 for r in rendered)
    assert all(r == r.lower() for r in rendered)
    order_by_value = sorted(range(len(values)), key=lambda i: values[i])
    order_by_text = sorted(range(len(values)), key=lambda i: rendered[i])
    assert order_by_value == order_by_text


def test_hex_serialization_edges():
    for v in (0, 2 ** 64 - 1, 2 ** 64, 2 ** 128 - 1):
        assert format_tiebreak((v,)) == format(v, "032x")
        assert len(format_tiebreak((v,))) == 32
    # past 16 bytes the value is spelled in full, 33 digits here
    assert format_tiebreak((2 ** 128,)) == format(2 ** 128, "032x")
    assert len(format_tiebreak((2 ** 128,))) == 33
    assert format_tiebreak(()) == ""
    lex = (5, 2 ** 64 + 3, 2 ** 63)
    assert format_tiebreak(lex) == ":".join(format(v, "032x") for v in lex)
    # a wide value anywhere in a sequence spells every value as before
    for tiebreak in ((2 ** 140, 1), (1, 2 ** 128, 2), (-1,), (0, -2 ** 130)):
        assert format_tiebreak(tiebreak) == ":".join(format(v, "032x") for v in tiebreak)


def test_timestamp_format_round_trips_exactly():
    rng = random.Random(23)
    for _ in range(200):
        ts = rng.random() * rng.choice((1.0, 1e3, 1e9))
        assert float(format_timestamp(ts)) == ts
