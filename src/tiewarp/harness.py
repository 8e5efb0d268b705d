"""Experiment orchestration on top of the two kernels.

Three reusable drivers live here. ``execute`` turns a flat RunSpec into a
trace. ``verify_determinism`` sweeps worker counts, chaos seeds, and repeats,
and reports whether every committed trace digest agrees with the sequential
reference. ``run_fairness`` estimates the probability that the deep end of a
zero-offset chain commits before an independent rival event, which has a
known closed form for the unbiased modes.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass, field

from .errors import CausalityViolation, ConfigError, InsufficientSamples, LivelockDetected
from .kernel_optimistic import (
    DEFAULT_GVT_INTERVAL,
    DEFAULT_MAX_DELAY,
    ChaosConfig,
    OptimisticKernel,
)
from .kernel_seq import run_sequential
from .models import MODEL_NAMES, build_model
from .scenarios import TiePairModel
from .timebase import DEFAULT_SEQUENCE_CAP, OrderingMode, sort_key
from .trace import Trace, first_divergence

DETERMINISM_SCHEMA = "tiewarp.determinism/1"
FAIRNESS_SCHEMA = "tiewarp.fairness/1"


@dataclass
class RunSpec:
    """Flat, serializable description of one simulation run."""

    model: str
    mode: str
    n_lps: int = 4
    end_time: float = 10.0
    seed: int = 1
    remote_prob: float | None = None
    chain_length: int | None = None
    height: int | None = None
    arity: int | None = None
    coupled: bool = False
    mean_offset: float | None = None
    workers: int = 1
    chaos_seed: int = 0
    max_delay: int = DEFAULT_MAX_DELAY
    gvt_interval: int = DEFAULT_GVT_INTERVAL
    seq_cap: int = DEFAULT_SEQUENCE_CAP
    naive: bool = False

    def model_params(self) -> dict:
        params = {"n_lps": self.n_lps, "end_time": self.end_time}
        if self.remote_prob is not None:
            params["remote_prob"] = self.remote_prob
        if self.model == "event-ties":
            if self.chain_length is not None:
                params["chain_length"] = self.chain_length
            params["coupled"] = self.coupled
        elif self.model == "event-ties-stress":
            if self.height is not None:
                params["height"] = self.height
            if self.arity is not None:
                params["arity"] = self.arity
        elif self.model == "phold":
            if self.mean_offset is not None:
                params["mean_offset"] = self.mean_offset
        return params

    def to_dict(self) -> dict:
        return asdict(self)


def build_run(spec: RunSpec):
    if spec.model not in MODEL_NAMES:
        raise ConfigError(f"unknown model {spec.model!r}; expected one of {MODEL_NAMES}")
    model = build_model(spec.model, **spec.model_params())
    mode = OrderingMode.from_name(spec.mode)
    if spec.naive and mode is not OrderingMode.UNBIASED_SINGLE:
        raise ConfigError("the naive derivation is only defined for mode unbiased-single")
    return model, mode


def execute(spec: RunSpec, force_optimistic: bool = False,
            collect_trace: bool = True):
    """Run the spec; returns (trace, metrics or None for sequential runs)."""
    model, mode = build_run(spec)
    if spec.workers == 1 and not force_optimistic:
        trace = run_sequential(model, mode, spec.seed, seq_cap=spec.seq_cap,
                               naive=spec.naive, collect_trace=collect_trace)
        return trace, None
    kernel = OptimisticKernel(
        model, mode, spec.seed, spec.workers,
        chaos=ChaosConfig(spec.chaos_seed, spec.max_delay),
        gvt_interval=spec.gvt_interval, seq_cap=spec.seq_cap, naive=spec.naive)
    trace = kernel.run()
    return trace, kernel.metrics()


def verify_determinism(spec: RunSpec, workers=(1, 2, 4, 8),
                       chaos_seeds=(0, 1, 2), repeats: int = 2) -> dict:
    """Sweep (workers, chaos seed, repeat) and compare trace digests.

    The sequential run is the reference. Verdicts: "deterministic" when every
    cell reproduced the reference digest, "nondeterministic" when at least
    two digests differ, "faulted" when any cell raised a causality or
    livelock error (recorded per cell, not propagated).
    """
    model, mode = build_run(spec)
    reference = run_sequential(model, mode, spec.seed,
                               seq_cap=spec.seq_cap).digest()
    cells = []
    digests = {reference}
    faults = 0
    for w in workers:
        for cs in chaos_seeds:
            for rep in range(repeats):
                cell = {"workers": w, "chaos_seed": cs, "repeat": rep}
                cell_spec = RunSpec(**{**spec.to_dict(),
                                       "workers": w, "chaos_seed": cs})
                try:
                    trace, _ = execute(cell_spec, force_optimistic=True)
                    cell["digest"] = trace.digest()
                    digests.add(cell["digest"])
                except CausalityViolation as exc:
                    cell["error"] = f"causality: {exc}"
                    faults += 1
                except LivelockDetected as exc:
                    cell["error"] = f"livelock: {exc}"
                    faults += 1
                cells.append(cell)
    if faults:
        verdict = "faulted"
    elif len(digests) == 1:
        verdict = "deterministic"
    else:
        verdict = "nondeterministic"
    return {
        "schema": DETERMINISM_SCHEMA,
        "spec": spec.to_dict(),
        "reference_digest": reference,
        "cells": cells,
        "distinct_digests": sorted(digests),
        "faults": faults,
        "verdict": verdict,
    }


@dataclass
class FairnessReport:
    mode: str
    depth: int
    samples: int
    successes: int
    p_hat: float
    expected: float | None
    half_width: float | None
    within: bool | None

    def to_dict(self) -> dict:
        d = asdict(self)
        d["schema"] = FAIRNESS_SCHEMA
        return d


def fairness_expected(mode: OrderingMode | str, depth: int) -> float | None:
    """Closed-form P(chain tail commits before the rival), where known.

    Lexicographic sequences inherit the order of their first draw, so any
    depth gives 1/2. Additive compares a sum of depth+1 uniforms against a
    single uniform: P = 1/(depth+2)!.
    """
    if isinstance(mode, str):
        mode = OrderingMode.from_name(mode)
    if mode is OrderingMode.LEX_SEQUENCE:
        return 0.5
    if mode is OrderingMode.UNBIASED_SINGLE:
        return 0.5 if depth == 0 else None
    if mode is OrderingMode.ADDITIVE:
        return 1.0 / math.factorial(depth + 2)
    return None


def run_fairness(mode_name: str, depth: int, samples: int,
                 base_seed: int = 0) -> FairnessReport:
    if samples < 100:
        raise InsufficientSamples(
            f"{samples} samples cannot resolve the target interval; need >= 100")
    mode = OrderingMode.from_name(mode_name)
    if not mode.uses_draws:
        raise ConfigError("fairness estimation needs a draw-based ordering mode")
    if mode is OrderingMode.UNBIASED_SINGLE and depth > 0:
        raise ConfigError(
            "unbiased-single cannot order zero-offset chains; depth must be 0")
    successes = 0
    for i in range(samples):
        model = TiePairModel(depth)
        trace = run_sequential(model, mode, base_seed + i)
        index = {(ev.source_lp, ev.serial): i
                 for i, ev in enumerate(trace.committed)}
        if index[model.target_identity()] < index[model.rival_identity()]:
            successes += 1
    p_hat = successes / samples
    expected = fairness_expected(mode, depth)
    if expected is None:
        return FairnessReport(mode.value, depth, samples, successes, p_hat,
                              None, None, None)
    half_width = 3.0 * math.sqrt(expected * (1.0 - expected) / samples)
    within = abs(p_hat - expected) <= half_width
    return FairnessReport(mode.value, depth, samples, successes, p_hat,
                          expected, half_width, within)


def compare_traces(a: Trace, b: Trace) -> dict:
    """Structural diff of two traces: first divergence and state deltas."""
    da, db = a.digest(), b.digest()
    state_diffs = []
    for lp in sorted(set(a.final_states) | set(b.final_states)):
        va = a.final_states.get(lp)
        vb = b.final_states.get(lp)
        if va != vb:
            state_diffs.append({"lp": lp, "a": va, "b": vb})
    return {
        "equal": da == db,
        "digest_a": da,
        "digest_b": db,
        "first_divergence": first_divergence(a, b),
        "net_events": [a.net_event_count, b.net_event_count],
        "state_diffs": state_diffs,
    }


def audit_trace(trace: Trace, mode_name: str) -> dict:
    """Causal audit of a committed trace.

    Checks that commit keys never regress (strictly ascending in draw-based
    and biased modes, non-decreasing timestamps otherwise) and that every
    event with a recorded parent commits after that parent. Keys are
    recomputed from each event's signature and identity, not read from the
    key the kernel stored, so the audit checks the kernels independently.
    """
    mode = OrderingMode.from_name(mode_name)
    violations = []
    seen = set()
    last_key = None
    for index, ev in enumerate(trace.committed):
        key = sort_key(ev.signature, (ev.source_pe, ev.source_lp, ev.serial), mode)
        if last_key is not None:
            if mode is OrderingMode.NONE:
                ok = key[0] >= last_key[0]
            else:
                ok = key > last_key
            if not ok:
                violations.append({"kind": "order-regression",
                                   "commit_index": index})
        last_key = key
        if ev.parent_key is not None and ev.parent_key not in seen:
            violations.append({"kind": "parent-not-committed",
                               "commit_index": index,
                               "parent": list(ev.parent_key)})
        seen.add((ev.source_lp, ev.serial))
    return {"events": len(trace.committed), "violations": violations}


def benchmark_sequential(spec: RunSpec) -> dict:
    """Wall-clock one sequential run without building trace rows."""
    model, mode = build_run(spec)
    start = time.perf_counter()
    trace = run_sequential(model, mode, spec.seed, seq_cap=spec.seq_cap,
                           collect_trace=False)
    elapsed = time.perf_counter() - start
    return {"mode": mode.value, "events": trace.net_event_count,
            "seconds": elapsed,
            "events_per_second": trace.net_event_count / elapsed if elapsed else 0.0}
