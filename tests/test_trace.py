"""Trace and event plumbing: match keys, digests, canonical lines."""

from tiewarp.timebase import TimeSignature
from tiewarp.trace import Event, Trace, first_divergence


def make_event(serial=0, tb=(5,), payload=7, depth=0, parent=None):
    return Event(0, 2, serial, 3, TimeSignature(1.0, tb),
                 payload=payload, zero_offset_depth=depth, parent_key=parent)


def test_match_key_is_content_not_creation_identity():
    # same (lp, serial) but different signatures: a stale child and its
    # corrected re-issue after a rollback; they must never annihilate each
    # other's messages
    stale = make_event(serial=4, tb=(0x662B, 0xF0F5))
    corrected = make_event(serial=4, tb=(0x5938, 0x2FF2, 0xF0F5))
    assert (stale.source_lp, stale.serial) == (corrected.source_lp, corrected.serial)
    assert stale.match_key() != corrected.match_key()
    # payload and depth differences separate copies too
    assert make_event(payload=7).match_key() != make_event(payload=8).match_key()
    assert make_event(depth=0).match_key() != make_event(depth=1).match_key()
    assert make_event(parent=(1, 1)).match_key() != make_event(parent=(1, 2)).match_key()


def test_anti_message_matches_its_positive_exactly():
    ev = make_event(parent=(1, 9))
    anti = ev.as_anti()
    assert anti.anti and not ev.anti
    assert anti.match_key() == ev.match_key()
    assert anti.payload == ev.payload
    assert anti.parent_key == ev.parent_key


def test_equal_match_keys_hash_equal():
    a = make_event(parent=(1, 9))
    b = make_event(parent=(1, 9))
    assert a is not b
    assert hash(a.match_key()) == hash(b.match_key())


def committed(lp, serial, ts, tb, pe=0, parent=None):
    return Event(pe, lp, serial, lp, TimeSignature(ts, tb), parent_key=parent)


def test_digest_covers_commits_and_states_not_header():
    a = Trace(committed=[committed(0, 0, 1.0, (3,))],
              final_states={0: 1.5}, header={"kernel": "sequential"})
    b = Trace(committed=[committed(0, 0, 1.0, (3,))],
              final_states={0: 1.5}, header={"kernel": "optimistic", "workers": 4})
    assert a.digest() == b.digest()
    c = Trace(committed=[committed(0, 0, 1.0, (4,))], final_states={0: 1.5})
    assert a.digest() != c.digest()
    d = Trace(committed=[committed(0, 0, 1.0, (3,))], final_states={0: 1.25})
    assert a.digest() != d.digest()


def test_digest_ignores_creating_pe():
    # the creating PE depends on the partition; commits are partition-free
    a = Trace(committed=[committed(0, 0, 1.0, (3,), pe=0)])
    b = Trace(committed=[committed(0, 0, 1.0, (3,), pe=2)])
    assert a.digest() == b.digest()
    assert first_divergence(a.canonical_lines(), b.canonical_lines()) is None


def test_canonical_line_format():
    line = committed(2, 5, 1.0, (255,), parent=(2, 4)).canonical_line(7)
    idx, src, serial, dest, ts, tb, parent = line.split(",")
    assert (idx, src, serial, dest) == ("7", "2", "5", "2")
    assert ts == "1.0"
    assert tb == format(255, "032x")
    assert parent == "2#4"
    assert committed(1, 0, 2.0, ()).canonical_line(0).endswith(",-")


def test_first_divergence_positions():
    base = [committed(0, 0, 1.0, (3,)), committed(1, 0, 1.0, (5,))]
    a = list(Trace(committed=list(base)).canonical_lines())
    assert first_divergence(a, Trace(committed=list(base)).canonical_lines()) is None
    swapped = Trace(committed=[base[1], base[0]]).canonical_lines()
    assert first_divergence(a, swapped) == 0
    shorter = Trace(committed=base[:1]).canonical_lines()
    assert first_divergence(a, shorter) == 1
    # same commits, different final states: the first state line
    richer = Trace(committed=list(base), final_states={0: 2.0}).canonical_lines()
    assert first_divergence(a, richer) == 2
