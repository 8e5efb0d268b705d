#!/usr/bin/env python3
"""Same digest from every worker count and adversarial schedule.

The event-ties model makes every single event simultaneous with another; the
optimistic kernel races 2..8 workers over them with randomized message delays
and scheduling, rolls back whatever it got wrong, and still commits the exact
order the sequential kernel chose. Then the same sweep in mode "none" (bare
timestamps, no tie-break draws) shows what goes away: each schedule commits
ties in its own order.
"""

from tiewarp.harness import RunSpec, execute

spec = RunSpec(model="event-ties", mode="lex", n_lps=64, end_time=6.0,
               chain_length=2, seed=5)

reference, _ = execute(spec)
print(f"sequential: {len(reference.committed)} events, "
      f"digest {reference.digest()[:16]}...")

print("\nlex mode, optimistic:")
for workers in (2, 4, 8):
    for chaos in (0, 1, 2):
        trace, metrics = execute(RunSpec(**{**spec.to_dict(),
                                            "workers": workers,
                                            "chaos_seed": chaos}))
        same = trace.digest() == reference.digest()
        print(f"  workers={workers} chaos={chaos}: digest match={same} "
              f"(rollbacks={metrics['rollbacks']}, "
              f"efficiency={metrics['efficiency']:.2f})")
        assert same

print("\nmode none, same sweeps:")
seen = set()
for chaos in range(5):
    trace, _ = execute(RunSpec(**{**spec.to_dict(), "mode": "none",
                                  "workers": 4, "chaos_seed": chaos}))
    seen.add(trace.digest())
    print(f"  chaos={chaos}: digest {trace.digest()[:16]}...")
print(f"{len(seen)} distinct outcomes from 5 schedules -- ties follow the "
      f"schedule once the draws are gone")
