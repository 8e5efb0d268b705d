"""Cross-check the layer tracer's time shares against cProfile on phold-seq.

    python3 perfbench/cprofile_check.py [SEED]

Runs the first input of the seed once under cProfile and once under the
layer tracer, each in this process after a fresh set-up, and prints for each
traced entry point its share of ``kernel.run()``: cProfile's cumulative
time, the tracer's inclusive time and the tracer's self time. cProfile
charges every Python call, including the unwrapped ones inside a span, so
its shares of call-heavy spans run higher than the tracer's.
"""

from __future__ import annotations

import cProfile
import gc
import pstats
import sys
from time import perf_counter

import worker

WORKLOAD = "phold-seq"

# span -> the (file suffix, function name) entries cProfile records for it
SPAN_FUNCTIONS = {
    "build_event": [("kernel_seq.py", "build_event")],
    "draw": [("rngstream.py", "draw")],
    "derive": [("timebase.py", "derive_child_signature")],
    "sort_key": [("timebase.py", "sort_key")],
    "handle": [("models.py", "handle")],
    "heap": [("~", "<built-in method _heapq.heappush>"),
             ("~", "<built-in method _heapq.heappop>")],
}


def cumulative(stats: dict, entries) -> float:
    return sum(v[3] for (path, _, name), v in stats.items()
               if any(path.endswith(f) and name == n for f, n in entries))


def cprofile_shares(spec) -> tuple[float, dict]:
    kernel = worker.build_kernel(spec)
    gc.collect()
    profile = cProfile.Profile()
    profile.enable()
    kernel.run()
    profile.disable()
    stats = pstats.Stats(profile).stats
    run_total = cumulative(stats, [("kernel_seq.py", "run")])
    shares = {span: cumulative(stats, entries) / run_total
              for span, entries in SPAN_FUNCTIONS.items()}
    shares["mix64"] = cumulative(stats, [("rngstream.py", "mix64")]) / run_total
    return run_total, shares


def tracer_shares(spec) -> tuple[float, dict, dict]:
    from layertrace import LayerTracer

    kernel = worker.build_kernel(spec)
    gc.collect()
    tracer = LayerTracer()
    tracer.install(type(kernel.model))
    try:
        t0 = perf_counter()
        kernel.run()
        total = perf_counter() - t0
    finally:
        tracer.remove()
    inclusive = {s: tracer.total_s[s] / total for s in SPAN_FUNCTIONS}
    own = {s: tracer.self_s[s] / total for s in SPAN_FUNCTIONS}
    return total, inclusive, own


def main(argv: list[str]) -> int:
    worker.import_program()
    from tiewarp.harness import RunSpec
    from workloads import DEFAULT_SEED, spec_fields

    seed = int(argv[0]) if argv else DEFAULT_SEED
    spec = RunSpec(**spec_fields(WORKLOAD, seed, 0))
    cp_total, cp = cprofile_shares(spec)
    tr_total, incl, own = tracer_shares(spec)
    print(f"{WORKLOAD} input {seed}:0; kernel.run() {cp_total:.2f} s under cProfile, "
          f"{tr_total:.2f} s under the tracer")
    print(f"{'span':<12} {'cProfile cum':>12} {'tracer incl':>12} {'tracer self':>12}")
    for span in SPAN_FUNCTIONS:
        print(f"{span:<12} {cp[span]:>12.1%} {incl[span]:>12.1%} {own[span]:>12.1%}")
    print(f"{'mix64':<12} {cp['mix64']:>12.1%} {'(in draw)':>12} {'':>12}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
