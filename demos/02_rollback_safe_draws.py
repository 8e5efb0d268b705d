#!/usr/bin/env python3
"""Counter-mode draw streams: rollback is just restoring an integer.

The value at cursor i is a pure function of (stream key, i). Nothing else is
stored, so undoing three draws means setting the cursor back by three, and
replaying gives bit-identical values. This is what lets the optimistic kernel
roll an LP back without keeping draw logs.
"""

from tiewarp.rngstream import DrawStream, Purpose, draw_at

stream = DrawStream.for_lp(global_seed=42, lp_id=7, purpose=Purpose.TIEBREAK)

first = [stream.draw() for _ in range(4)]
print("draws 0..3:", [hex(v)[:10] for v in first])

mark = stream.cursor                # an int, nothing more
print("cursor:", mark)

later = [stream.draw() for _ in range(3)]
print("draws 4..6:", [hex(v)[:10] for v in later])

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

# separate purposes give unrelated streams for the same LP and seed
model = DrawStream.for_lp(global_seed=42, lp_id=7, purpose=Purpose.MODEL)
print("same lp, model stream:", [hex(model.draw())[:10] for _ in range(2)])
