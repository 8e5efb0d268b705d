"""Trace and event plumbing: match keys, digests, canonical lines."""

import hashlib
import random
from dataclasses import fields

import pytest

from tiewarp.trace import CHUNK, TRACE_SCHEMA, Event, Trace, digest_lines, first_divergence


def make_event(serial=0, tb=(5,), payload=7, depth=0, parent=None):
    return Event(0, 2, serial, 3, 1.0, tb,
                 payload=payload, zero_offset_depth=depth, parent_key=parent)


def test_match_key_is_content_not_creation_identity():
    # same (lp, serial) but different tie-breaks: a stale child and its
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


def test_equal_match_keys_hash_equal():
    a = make_event(parent=(1, 9))
    b = make_event(parent=(1, 9))
    assert a is not b
    assert hash(a.match_key()) == hash(b.match_key())


def committed(lp, serial, ts, tb, pe=0, parent=None):
    return Event(pe, lp, serial, lp, ts, tb, parent_key=parent)


def test_trace_is_what_the_digest_covers():
    # a trace holds the commits and the final states, nothing else, and the
    # digest sees a change in either
    assert [f.name for f in fields(Trace)] == ["committed", "final_states"]
    a = Trace(committed=[committed(0, 0, 1.0, (3,))], final_states={0: 1.5})
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


def only_line(ev):
    (line,) = Trace(committed=[ev]).canonical_lines()
    return line


def test_canonical_line_format():
    line = only_line(committed(2, 5, 1.0, (255,), parent=(2, 4)))
    idx, src, serial, dest, ts, tb, parent = line.split(",")
    assert (idx, src, serial, dest) == ("0", "2", "5", "2")
    assert ts == "1.0"
    assert tb == format(255, "032x")
    assert parent == "2#4"
    assert only_line(committed(1, 0, 2.0, ())).endswith(",-")


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


def reference_lines(trace):
    """The canonical lines formatted one event at a time, spelled out here
    independently of the chunked encoder."""
    for index, ev in enumerate(trace.committed):
        parent = f"{ev.parent_key[0]}#{ev.parent_key[1]}" if ev.parent_key else "-"
        tiebreak = ":".join(format(v, "032x") for v in ev.tiebreak)
        yield (f"{index},{ev.source_lp},{ev.serial},{ev.dest_lp},"
               f"{repr(float(ev.timestamp))},{tiebreak},{parent}")
    for lp in sorted(trace.final_states):
        value = trace.final_states[lp]
        text = repr(float(value)) if isinstance(value, float) else repr(value)
        yield f"state,{lp},{text}"


def random_trace(n_events, seed):
    rng = random.Random(seed)
    events = []
    for serial in range(n_events):
        tiebreak = tuple(rng.choice((rng.randrange(2 ** 64), 2 ** 64 + rng.randrange(2 ** 70)))
                         for _ in range(rng.choice((0, 1, 1, 3))))
        parent = rng.choice((None, (0, 0), (rng.randrange(50), rng.randrange(10 ** 6))))
        events.append(Event(rng.randrange(8), rng.randrange(50), serial, rng.randrange(50),
                            rng.choice((0.0, 2.0, rng.random() * 1e9)), tiebreak,
                            parent_key=parent))
    states = {lp: rng.choice((None, rng.randrange(-5, 10 ** 20), rng.random() * 10, 3.0))
              for lp in rng.sample(range(50), rng.randrange(4))}
    return Trace(committed=events, final_states=states)


@pytest.mark.parametrize("n_events", [0, 1, CHUNK - 1, CHUNK, CHUNK + 1])
def test_encoder_matches_a_per_line_reference(tmp_path, n_events):
    trace = random_trace(n_events, seed=n_events)
    expected = list(reference_lines(trace))
    assert list(trace.canonical_lines()) == expected
    text = "".join(line + "\n" for line in expected).encode("ascii")
    assert trace.digest() == hashlib.sha256(text).hexdigest()
    path = tmp_path / "trail.txt"
    assert trace.write(path) == trace.digest()
    assert path.read_bytes() == TRACE_SCHEMA.encode("ascii") + b"\n" + text
    assert digest_lines(expected) == trace.digest()


def test_reference_covers_every_shape_the_encoder_formats():
    # the differential test above is only as good as the cases it draws
    events = [ev for n in (1, CHUNK - 1, CHUNK, CHUNK + 1) for ev in random_trace(n, n).committed]
    lengths = {len(ev.tiebreak) for ev in events}
    assert {0, 1, 3} <= lengths
    assert any(v >= 2 ** 64 for ev in events for v in ev.tiebreak)
    parents = [ev.parent_key for ev in events]
    assert None in parents and (0, 0) in parents
    states = [v for n in (1, CHUNK - 1, CHUNK, CHUNK + 1)
              for v in random_trace(n, n).final_states.values()]
    assert {type(v) for v in states} >= {type(None), int, float}


def test_digest_does_the_full_work_on_every_call(monkeypatch):
    passes = []
    chunks = Trace._chunks

    def counted(self):
        passes.append(self)
        return chunks(self)

    monkeypatch.setattr(Trace, "_chunks", counted)
    trace = Trace(committed=[committed(0, 0, 1.0, (3,))], final_states={0: 1})
    fields = set(vars(trace))
    first = trace.digest()
    assert trace.digest() == first
    assert len(passes) == 2
    trace.committed.append(committed(1, 0, 1.0, (4,)))
    assert trace.digest() != first
    trace.committed.pop()
    assert trace.digest() == first
    trace.final_states[0] = 2
    assert trace.digest() != first
    # nothing is memoised: Trace keeps only its fields and Event has no dict
    assert set(vars(trace)) == fields
    assert not hasattr(trace.committed[0], "__dict__")
