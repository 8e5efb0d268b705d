#!/usr/bin/env python3
"""Counter-based draws: rollback is just restoring an integer, or nothing.

The value at index i is a pure function of (key, i). Nothing else is stored,
so undoing three model draws means setting the stream's cursor back by
three, and replaying gives bit-identical values. A tie-break draw needs not
even a cursor: it is the value at the event's serial under its source LP's
tie-break key, so it is keyed by the event's identity. This is what lets
the optimistic kernel roll an LP back without keeping draw logs.
"""

from tiewarp import EventTiesModel, OrderingMode, run_sequential
from tiewarp.rngstream import DrawStream, draw_at, lp_keys, mix64

stream = DrawStream(lp_keys(mix64(42), 7)[1])   # LP 7's (tie-break, model) keys

first = [stream.draw() for _ in range(4)]
print("model draws 0..3:", [hex(v)[:10] for v in first])

mark = stream.cursor                # an int, nothing more
print("cursor:", mark)

later = [stream.draw() for _ in range(3)]
print("model draws 4..6:", [hex(v)[:10] for v in later])

stream.cursor = mark                # rollback
replayed = [stream.draw() for _ in range(3)]
print("replayed 4..6:", [hex(v)[:10] for v in replayed])
assert replayed == later, "replay must be bit-identical"

# random access works without any stream object at all
print("draw_at(key, 5) ==", hex(draw_at(stream.key, 5))[:10])
assert draw_at(stream.key, 5) == later[1]

# and the whole stream so far is just draw_at over its cursor positions
indexed = [draw_at(stream.key, i) for i in range(7)]
assert indexed == first + later
print("stream == draw_at for", len(indexed), "draws")

# a tie-break is keyed by identity: the source LP's tie-break key at the
# event's serial, so every committed event's last draw can be recomputed
seed = 42
trace = run_sequential(EventTiesModel(n_lps=4, end_time=3.0, chain_length=2),
                       OrderingMode.LEX_SEQUENCE, seed)
for ev in trace.committed:
    key = lp_keys(mix64(seed), ev.source_lp)[0]
    assert ev.tiebreak[-1] == draw_at(key, ev.serial)
ev = trace.committed[-1]
print(f"event lp{ev.source_lp}#{ev.serial}: last tie-break",
      hex(ev.tiebreak[-1])[:10], "== draw_at(tiebreak key, serial)")
print("identity-keyed tie-breaks hold for", len(trace.committed), "events")
