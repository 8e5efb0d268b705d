"""tiewarp benchmark: committed events/s, digest cost, set-up time and memory.

    python3 perfbench/run.py --workload phold-seq --seed 3 --seconds 25 --trace 0

Run from the root of a checkout; see NOTES.md for the workloads. The command

1. computes, in a separate process, the sequential reference digest of each
   input the seed derives, and exits 1 if the default seed's first input no
   longer reproduces the digest frozen in ``reference_digests.json``;
2. with ``--trace 0``, makes passes over the inputs within ``--seconds``,
   each run of an input in a fresh process, and reports medians of the
   end-to-end metrics, with times scaled to a reference host speed by a
   calibration loop timed in the same processes;
3. with ``--trace 1``, alternates untraced and traced runs of the first
   input, and reports the per-layer metrics of the traced runs and the
   tracing overhead;
4. prints one JSON line of context (environment, inputs, wall times), then
   the result as the last line. ``--workload all`` does this for every
   workload in turn and ends with one line that merges their results.

A run fails if it raises, if its digest differs from the reference, or, when
traced, if a count identity breaks. It exits 2 without a result if the
checkout holds no tiewarp sources.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from importlib.metadata import version
from pathlib import Path
from time import perf_counter

from workloads import DEFAULT_SEED, VARIANTS, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
FROZEN = HERE / "reference_digests.json"

# Per timed process: set-ups, then one run and digests of its trace, each
# timed on its own.
SETUPS_PER_RUN = 5
DIGESTS_PER_RUN = 3
# Reported times are CPU times scaled to a host on which one calibration
# loop (worker.calibration_loop) takes this long: about its median on the
# 2-core 2 GHz x86 virtual machine the benchmark was built on.
CAL_REF_S = 0.02
# At least this many untraced/traced pairs, whatever --seconds says.
MIN_TRACED_PAIRS = 2
CHILD_TIMEOUT_S = 120

END_TO_END_UNITS = {"committed_eps": "events/s", "digest_s": "s",
                    "setup_s": "s", "peak_rss_mb": "MiB"}
# Per-layer units other than "s" (names ending in _s) and "count".
LAYER_UNITS = {"rngstream.draws_per_commit": "draws/event",
               "timebase.mean_tiebreak_len": "draws/key",
               "kernel_optimistic.efficiency": "ratio",
               "trace.digest_bytes": "B",
               "tracing.overhead": "x"}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return LAYER_UNITS.get(name, "count")


class ChildFailed(Exception):
    pass


def child(*args) -> dict:
    """Run one worker process to completion and parse its JSON output."""
    proc = subprocess.run([sys.executable, str(WORKER), *map(str, args)],
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
                          cwd=ROOT)
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:]
        raise ChildFailed(tail[0] if tail else f"exit {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def git_commit() -> str | None:
    """HEAD of the checkout, or None when it is not a git work tree."""
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse",
                               "--show-toplevel", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def environment() -> dict:
    return {"python": platform.python_version(), "numpy": version("numpy"),
            "nproc": len(os.sched_getaffinity(0)), "git_commit": git_commit(),
            "loadavg_1m": os.getloadavg()[0]}


def references(workload: str, seed: int, variants: int) -> dict:
    """Sequential reference digests of the seed's inputs, keyed SEED:VARIANT.

    Exits 1 if the default seed's first input no longer reproduces the
    digest frozen in reference_digests.json.
    """
    frozen_input = f"{DEFAULT_SEED}:0"
    inputs = [f"{seed}:{v}" for v in range(variants)]
    digests = child("reference", workload, *dict.fromkeys(inputs + [frozen_input]))
    frozen = json.loads(FROZEN.read_text())[workload]
    if digests[frozen_input] != frozen:
        print(f"{workload}: sequential reference digest of input {frozen_input} "
              f"is {digests[frozen_input]}, frozen {frozen}", file=sys.stderr)
        raise SystemExit(1)
    return {k: digests[k] for k in inputs}


def run_one(kind: str, workload: str, refs: dict, token: str, *extra):
    """One repetition on input ``token``; its record, or None if it failed."""
    try:
        rec = child(kind, workload, token, *extra)
    except (ChildFailed, subprocess.TimeoutExpired) as exc:
        print(f"{kind} run on {token} failed: {exc}", file=sys.stderr)
        return None
    if rec["digest"] != refs[token]:
        print(f"{kind} run on {token}: digest {rec['digest']} != reference "
              f"{refs[token]}", file=sys.stderr)
        return None
    if rec.get("violations"):
        print(f"{kind} run on {token}: {'; '.join(rec['violations'])}",
              file=sys.stderr)
        return None
    return rec


def end_to_end(workload: str, seed: int, seconds: float):
    """Passes over the seed's inputs, as many as fit in ``seconds`` (at least
    one; the first pass's duration decides how many).

    Each pass runs every input once, in a fresh process. Times are scaled
    to reference host speed by the run's calibration (see CAL_REF_S).
    ``committed_eps`` and ``digest_s`` use means, of the samples and of the
    calibrations alike: the host switches between fast and slow spells, and
    a mean moves in proportion to the share of time spent in each, where a
    median jumps from one spell's value to the other's. ``setup_s`` is the
    median set-up over the median calibration.
    """
    refs = references(workload, seed, VARIANTS)
    records, attempted = [], 0

    def one_pass():
        nonlocal attempted
        for token in refs:
            rec = run_one("timed", workload, refs, token, SETUPS_PER_RUN,
                          DIGESTS_PER_RUN)
            attempted += 1
            if rec is not None:
                records.append(rec)

    start = perf_counter()
    one_pass()
    passes = max(1, int(seconds / (perf_counter() - start)))
    for _ in range(passes - 1):
        one_pass()
    context = {"references": refs, "passes": passes}
    if not records:
        return attempted, attempted, None, context

    def samples(key):
        return [x for r in records for x in r[key]]

    def pooled_eps(key):
        return sum(r["committed"] for r in records) / sum(r[key] for r in records)

    cpu = {"committed_eps": pooled_eps("run_s"),
           "digest_s": statistics.fmean(samples("digest_s")),
           "setup_s": statistics.median(samples("setup_s")),
           "calibration_mean_s": statistics.fmean(samples("cal_s")),
           "calibration_median_s": statistics.median(samples("cal_s"))}
    mean_slowdown = cpu["calibration_mean_s"] / CAL_REF_S
    values = {"committed_eps": cpu["committed_eps"] * mean_slowdown,
              "digest_s": cpu["digest_s"] / mean_slowdown,
              "setup_s": cpu["setup_s"] * CAL_REF_S / cpu["calibration_median_s"],
              "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in records)}
    context["cpu"] = cpu
    context["wall_committed_eps"] = pooled_eps("run_wall_s")
    return attempted, attempted - len(records), {
        k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}, context


def per_layer(workload: str, seed: int, seconds: float):
    """Alternate untraced and traced runs on the seed's first input.

    Times are medians over the traced runs. Counts
    must repeat exactly for one input, so a traced run whose counts differ
    from the first traced run's counts is a failed run.
    """
    refs = references(workload, seed, 1)
    token = f"{seed}:0"
    plain, traced, attempted = [], [], 0
    deadline = perf_counter() + seconds
    while attempted < 2 * MIN_TRACED_PAIRS or perf_counter() < deadline:
        attempted += 2
        rec = run_one("timed", workload, refs, token, 1, 1)
        if rec is not None:
            plain.append(rec)
        rec = run_one("traced", workload, refs, token)
        if rec is not None:
            traced.append(rec)
    context = {"references": refs}
    if not plain or not traced:
        return attempted, attempted, None, context
    first = traced[0]["metrics"]
    counts = {k: v for k, v in first.items() if not k.endswith("_s")}
    agreeing = [r for r in traced
                if all(r["metrics"][k] == v for k, v in counts.items())]
    if len(agreeing) < len(traced):
        print(f"{len(traced) - len(agreeing)} traced runs disagree on exact counts",
              file=sys.stderr)
    values = {k: statistics.median(r["metrics"][k] for r in traced)
              for k in first if k.endswith("_s")}
    values.update(counts)
    values["tracing.overhead"] = (
        statistics.median(r["run_s"] for r in traced)
        / statistics.median(r["run_s"] for r in plain))
    context["wall_tracing_overhead"] = (
        statistics.median(r["run_wall_s"] for r in traced)
        / statistics.median(r["run_wall_s"] for r in plain))
    return attempted, attempted - len(plain) - len(agreeing), {
        k: {"value": v, "unit": layer_unit(k)} for k, v in sorted(values.items())}, context


def measure(workload: str, seed: int, seconds: float, trace: int) -> dict | None:
    """Run one workload; print its context and result lines; return the result."""
    env = environment()
    attempted, failed, metrics, context = (per_layer if trace else end_to_end)(
        workload, seed, seconds)
    print(json.dumps({"workload": workload, "seed": seed, "environment": env,
                      **context}))
    if metrics is None:
        print(f"{workload}: every run failed; no metrics to report", file=sys.stderr)
        return None
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    print(json.dumps(result), flush=True)
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"],
                        help="one workload, or all of them one after another")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "tiewarp" / "__init__.py").is_file():
        print(f"no tiewarp sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload != "all":
        return 0 if measure(args.workload, args.seed, args.seconds, args.trace) else 1
    # every workload, then one line that merges their results
    results = {w: measure(w, args.seed, args.seconds, args.trace) for w in WORKLOADS}
    if None in results.values():
        return 1
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{k}": v for w, r in results.items()
                    for k, v in r["metrics"].items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
