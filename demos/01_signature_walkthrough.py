#!/usr/bin/env python3
"""Walk through the worked two-LP example, one ordering mode at a time.

Five events, all at timestamp 1.0: LP 0 processes the chain A -> A1 -> A2
(each child created at zero offset from its parent), LP 1 processes B -> B1.
The tie-break fractions are pinned to 0.1 / 0.40 / 0.20 and 0.15 / 0.30, so
the committed orders below can be checked by hand.
"""

import sys
from pathlib import Path

from tiewarp.kernel_seq import run_sequential
from tiewarp.timebase import OrderingMode
from tiewarp.errors import CausalityViolation

# the worked example's scripted model lives with the tests
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from scenarios import ScriptedModel, committed_names, TABLE_SCRIPT  # noqa: E402

print("script (name, lp, parent, offset, fraction):")
for row in TABLE_SCRIPT:
    print("  ", row)

# additive: a zero-offset child carries parent_sum + own draw.
# sums: A=0.1  B=0.15  B1=0.15+0.30=0.45  A1=0.1+0.40=0.50  A2=0.50+0.20=0.70
trace = run_sequential(ScriptedModel(), OrderingMode.ADDITIVE, 1)
print("\nadditive commit order:", " ".join(committed_names(trace)))

# lex: a zero-offset child appends its draw to the parent's sequence, and a
# strict prefix orders before its extensions, so whole chains stay together:
# [0.1] < [0.1,0.4] < [0.1,0.4,0.2] < [0.15] < [0.15,0.3]
trace = run_sequential(ScriptedModel(), OrderingMode.LEX_SEQUENCE, 1)
print("lex commit order:     ", " ".join(committed_names(trace)))

# mode naive draws a fresh independent value for A2 (0.20), which sorts
# before its own parent A1 (0.40) -- the kernel refuses to proceed
try:
    run_sequential(ScriptedModel(), OrderingMode.NAIVE, 1)
except CausalityViolation as exc:
    print("\nnaive independent draws:", exc)
else:
    raise AssertionError("mode naive must violate causality on this script")
