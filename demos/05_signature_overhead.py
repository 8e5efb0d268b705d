#!/usr/bin/env python3
"""What do the tie-break draws cost when nothing ever ties?

PHOLD schedules strictly positive exponential offsets, so signatures never
collide and the draws are pure overhead: one tie-break draw and a longer key
to build per event. The sequential heap compares timestamps first, so the
wider key is read only on a timestamp tie, which PHOLD never has. This
times the sequential kernel in mode "none"
(bare float timestamps) against the draw-carrying modes on the same workload.
A scaled-down version of the acceptance gate, which demands lex <= 2x none
at a million events.
"""

from tiewarp.harness import RunSpec, benchmark

base = dict(model="phold", n_lps=256, end_time=200.0, seed=1, remote_prob=0.1)

results = {}
for mode in ("none", "biased", "unbiased-single", "additive", "lex"):
    r = benchmark(RunSpec(mode=mode, **base))
    results[mode] = r
    print(f"{mode:<16} {r['events']:>7} events  {r['seconds']:.2f}s  "
          f"{r['events_per_second']:>8.0f} ev/s")

ratio = results["lex"]["seconds"] / results["none"]["seconds"]
print(f"\nlex / none wall ratio: {ratio:.2f}")
