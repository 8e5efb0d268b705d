#!/usr/bin/env python3
"""How often does a zero-offset chain's tail beat an independent rival?

The probe runs event-ties on two LPs, each with one chain of d+1 events at
the same timestamp, and races the tail of LP 0's chain against the head of
LP 1's. "Fair" means the committed order is as random as the draws: lex
gives exactly 1/2 at any depth because the whole chain rides its head draw. Additive is unbiased between singletons but handicaps chains:
the tail carries a sum of d+1 uniforms, so it wins with probability
1/(d+2)! -- still random, never starved, but no longer balanced.
"""

from tiewarp.harness import run_fairness

SAMPLES = 600

print(f"{SAMPLES} sequential runs per cell; intervals are 3 binomial sigma\n")
print("mode      depth  p_hat    expected  interval")
for mode in ("lex", "additive"):
    for depth in (0, 1, 2):
        r = run_fairness(mode, depth, SAMPLES)
        lo = r["expected"] - r["half_width"]
        hi = r["expected"] + r["half_width"]
        flag = "ok" if r["within"] else "OUTSIDE"
        print(f"{mode:<9} {depth:>5}  {r['p_hat']:.4f}   {r['expected']:.4f}    "
              f"[{lo:.4f}, {hi:.4f}]  {flag}")

# unbiased-single handles plain ties (depth 0) but has no answer for chains
r = run_fairness("unbiased-single", 0, SAMPLES)
print(f"unbiased-single depth 0: p_hat={r['p_hat']:.4f} expected={r['expected']}")
try:
    run_fairness("unbiased-single", 1, SAMPLES)
except Exception as exc:
    print(f"unbiased-single depth 1: {exc}")
