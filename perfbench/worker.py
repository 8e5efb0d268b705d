"""One benchmark process: a reference run, a timed run or a traced run.

Every timed or traced repetition runs in a fresh process, so no earlier
kernel or trace is alive on its heap and its peak RSS belongs to that run
alone. The process prints one JSON object on stdout and exits non-zero if
the run raised.

Times are the process's CPU time. The kernels are single-threaded and do no
I/O, so on an idle machine CPU time equals wall time; on a virtual machine
whose CPUs are shared, wall time also counts the time the hypervisor gave
the CPU to someone else, which swings single runs by up to 50%. Wall time
is reported alongside as ``run_wall_s``.

CPU time still follows the host: the same work takes up to 1.8 times as
long while other tenants load it, in spells from a fraction of a second to
half a minute. So the process also times a calibration, a fixed
pure-Python loop that uses nothing from tiewarp, before and after each
timed stretch (``cal_s``); run.py scales the times by it.

    python3 perfbench/worker.py reference WORKLOAD SEED:VARIANT [...]
    python3 perfbench/worker.py timed WORKLOAD SEED:VARIANT SETUPS DIGESTS
    python3 perfbench/worker.py traced WORKLOAD SEED:VARIANT
"""

from __future__ import annotations

import gc
import hashlib
import heapq
import json
import resource
import sys
from pathlib import Path
from time import perf_counter, process_time

SRC = Path(__file__).resolve().parent.parent / "src"


def import_program() -> None:
    """Import tiewarp from this checkout's ``src`` and nowhere else."""
    if not (SRC / "tiewarp" / "__init__.py").is_file():
        raise SystemExit(f"no tiewarp sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import tiewarp

    if Path(tiewarp.__file__).resolve().parent != SRC / "tiewarp":
        raise SystemExit(f"tiewarp imported from {tiewarp.__file__}, not {SRC}")


def build_kernel(spec):
    """Set-up as the benchmark times it: model, ordering mode and kernel."""
    from tiewarp.harness import build_run
    from tiewarp.kernel_optimistic import ChaosConfig, OptimisticKernel
    from tiewarp.kernel_seq import SequentialKernel

    model, mode = build_run(spec)
    if spec.workers == 1:
        return SequentialKernel(model, mode, spec.seed, seq_cap=spec.seq_cap)
    return OptimisticKernel(model, mode, spec.seed, spec.workers,
                            chaos=ChaosConfig(spec.chaos_seed, spec.max_delay),
                            gvt_interval=spec.gvt_interval, seq_cap=spec.seq_cap)


def reference(spec) -> str:
    """Digest of the sequential kernel on the same model and global seed."""
    from tiewarp.harness import build_run
    from tiewarp.kernel_seq import run_sequential

    model, mode = build_run(spec)
    return run_sequential(model, mode, spec.seed, seq_cap=spec.seq_cap).digest()


class _CalibrationLp:
    __slots__ = ("state", "count")

    def __init__(self):
        self.state = 0
        self.count = 0

    def handle(self, x: int) -> int:
        self.count += 1
        self.state = (self.state + x) % 1000
        return self.state


def _calibration_draw(x: int) -> int:
    return (x * 1103515245 + 12345) & 0x7FFFFFFF


def calibration_loop(n: int = 8000) -> str:
    """A fixed toy event loop: heap of tuples, method calls, attribute
    updates, integer draws, float formatting and SHA-256, the kinds of work
    the kernels and the digest do."""
    lps = [_CalibrationLp() for _ in range(64)]
    heap = [(i * 0.5, i, i) for i in range(64)]
    heapq.heapify(heap)
    h = hashlib.sha256()
    x = 12345
    for step in range(n):
        t, _, lp = heapq.heappop(heap)
        x = _calibration_draw(x)
        state = lps[lp].handle(x)
        dest = lp if x & 7 else x % 64
        heapq.heappush(heap, (t + (x & 1023) / 1024.0 + 0.001, step + 64, dest))
        if step & 3 == 0:
            h.update(f"{step},{t!r},{lp},{state}\n".encode("ascii"))
    return h.hexdigest()


def calibration_s() -> list[float]:
    """CPU times of three calibration loops, with the collector off so that
    the program's heap cannot slow them."""
    gc.disable()
    try:
        out = []
        for _ in range(3):
            t0 = process_time()
            calibration_loop()
            out.append(process_time() - t0)
        return out
    finally:
        gc.enable()


def timed_run(kernel):
    """(CPU seconds, wall seconds, trace) of ``kernel.run()``."""
    c0, w0 = process_time(), perf_counter()
    trace = kernel.run()
    return process_time() - c0, perf_counter() - w0, trace


def timed(spec, setups: int, digests: int) -> dict:
    """Set up ``setups`` times, run the last kernel, digest ``digests`` times.

    Each set-up, the run and each digest are timed on their own, and three
    calibrations are timed before the set-ups and after each of the three
    stretches.
    """
    cal_s = calibration_s()
    setup_s = []
    for _ in range(setups):
        kernel = None  # the previous set-up is garbage before the next starts
        gc.collect()
        t0 = process_time()
        kernel = build_kernel(spec)
        setup_s.append(process_time() - t0)
    cal_s += calibration_s()
    gc.collect()
    run_s, run_wall_s, trace = timed_run(kernel)
    # ru_maxrss is in KiB on Linux
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    cal_s += calibration_s()
    digest_s = []
    for _ in range(digests):
        t0 = process_time()
        digest = trace.digest()
        digest_s.append(process_time() - t0)
    cal_s += calibration_s()
    return {"setup_s": setup_s, "run_s": run_s, "run_wall_s": run_wall_s,
            "digest_s": digest_s, "cal_s": cal_s,
            "committed": len(trace.committed), "digest": digest,
            "peak_rss_mb": peak_rss_mb}


def traced(spec) -> dict:
    """Per-layer metrics of one ``kernel.run()``; set-up is not traced."""
    from layertrace import LayerTracer, identity_violations, layer_metrics

    kernel = build_kernel(spec)
    gc.collect()
    tracer = LayerTracer()
    tracer.install(type(kernel.model))
    try:
        run_s, run_wall_s, trace = timed_run(kernel)
    finally:
        tracer.remove()
    committed = len(trace.committed)
    optimistic = spec.workers > 1
    metrics = layer_metrics(tracer, committed,
                            kernel.metrics() if optimistic else None,
                            0 if optimistic else kernel.peak_pending)
    lines = nbytes = 0
    for line in trace.canonical_lines():
        lines += 1
        nbytes += len(line) + 1
    metrics["trace.digest_lines"] = lines
    metrics["trace.digest_bytes"] = nbytes
    return {"run_s": run_s, "run_wall_s": run_wall_s, "committed": committed,
            "digest": trace.digest(),
            "metrics": metrics,
            "violations": identity_violations(metrics, committed, optimistic,
                                              tracer.restored())}


def main(argv: list[str]) -> int:
    import_program()
    from tiewarp.harness import RunSpec
    from workloads import spec_fields

    def spec(token: str):
        seed, variant = token.split(":")
        return RunSpec(**spec_fields(workload, int(seed), int(variant)))

    kind, workload, inputs = argv[0], argv[1], argv[2:]
    if kind == "reference":
        out = {token: reference(spec(token)) for token in inputs}
    elif kind == "timed":
        out = timed(spec(inputs[0]), int(inputs[1]), int(inputs[2]))
    elif kind == "traced":
        out = traced(spec(inputs[0]))
    else:
        raise SystemExit(f"unknown kind {kind!r}")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
