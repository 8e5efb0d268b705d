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
from dataclasses import asdict, dataclass, fields
from typing import get_args, get_type_hints

from .errors import CausalityViolation, ConfigError, InsufficientSamples, LivelockDetected
from .kernel_optimistic import (
    DEFAULT_GVT_INTERVAL,
    DEFAULT_MAX_DELAY,
    ChaosConfig,
    OptimisticKernel,
)
from .kernel_seq import SequentialKernel, run_sequential
from .models import build_model, model_class
from .scenarios import TiePairModel
from .timebase import DEFAULT_SEQUENCE_CAP, OrderingMode, sort_key
from .trace import Trace

DETERMINISM_SCHEMA = "tiewarp.determinism/1"
FAIRNESS_SCHEMA = "tiewarp.fairness/1"


@dataclass
class RunSpec:
    """Flat, serializable description of one simulation run.

    The single declaration of every run parameter and its default. A model
    parameter left None takes its default from the model class.
    Each value must have its field's declared type, or a ConfigError is
    raised: an int is accepted for a float field, a bool never for a number.
    """

    model: str = "phold"
    mode: str = "lex"
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

    def __post_init__(self):
        for f in fields(self):
            value, allowed = getattr(self, f.name), _FIELD_TYPES[f.name]
            if (isinstance(value, bool) != (bool in allowed)
                    or not isinstance(value, allowed)):
                raise ConfigError(f"{f.name} must be {f.type}, got {value!r}")

    def model_params(self) -> dict:
        """This spec's non-None values for the fields the model class declares."""
        return {f.name: getattr(self, f.name) for f in fields(model_class(self.model))
                if getattr(self, f.name, None) is not None}

    def to_dict(self) -> dict:
        return asdict(self)


def _allowed_types(hint) -> tuple:
    """The classes a field's values may have; an int widens to a float."""
    allowed = get_args(hint) or (hint,)
    return allowed + (int,) if float in allowed else allowed


_FIELD_TYPES = {name: _allowed_types(hint)
                for name, hint in get_type_hints(RunSpec).items()}


def build_run(spec: RunSpec):
    return (build_model(spec.model, **spec.model_params()),
            OrderingMode.from_name(spec.mode))


def execute(spec: RunSpec, force_optimistic: bool = False):
    """Run the spec; returns (trace, metrics or None for sequential runs)."""
    model, mode = build_run(spec)
    if spec.workers == 1 and not force_optimistic:
        return run_sequential(model, mode, spec.seed, seq_cap=spec.seq_cap), None
    kernel = OptimisticKernel(
        model, mode, spec.seed, spec.workers,
        chaos=ChaosConfig(spec.chaos_seed, spec.max_delay),
        gvt_interval=spec.gvt_interval, seq_cap=spec.seq_cap)
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
    expected: float
    half_width: float
    within: bool

    def to_dict(self) -> dict:
        d = asdict(self)
        d["schema"] = FAIRNESS_SCHEMA
        return d


def fairness_expected(mode: OrderingMode | str, depth: int) -> float | None:
    """Closed-form P(chain tail commits before the rival), or None where
    there is none, which is exactly where ``run_fairness`` refuses to run.

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
    if depth < 0:
        raise ConfigError(f"depth must be >= 0, got {depth}")
    mode = OrderingMode.from_name(mode_name)
    expected = fairness_expected(mode, depth)
    if expected is None:
        raise ConfigError(
            f"mode {mode.value} has no fairness closed form at depth {depth}; "
            f"use lex, additive, or unbiased-single at depth 0")
    successes = 0
    for i in range(samples):
        model = TiePairModel(depth)
        trace = run_sequential(model, mode, base_seed + i)
        index = {(ev.source_lp, ev.serial): i
                 for i, ev in enumerate(trace.committed)}
        if index[model.target_identity()] < index[model.rival_identity()]:
            successes += 1
    p_hat = successes / samples
    half_width = 3.0 * math.sqrt(expected * (1.0 - expected) / samples)
    within = abs(p_hat - expected) <= half_width
    return FairnessReport(mode.value, depth, samples, successes, p_hat,
                          expected, half_width, within)


def audit_trace(trace: Trace, mode_name: str) -> dict:
    """Causal audit of a committed trace.

    Checks that each commit key is ``mode.after`` the one before (strictly
    ascending, or non-decreasing bare timestamps in mode none) and that every
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
        if last_key is not None and not mode.after(key, last_key):
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
    """Wall-clock one sequential run."""
    model, mode = build_run(spec)
    kernel = SequentialKernel(model, mode, spec.seed, seq_cap=spec.seq_cap)
    start = time.perf_counter()
    kernel.run()
    elapsed = time.perf_counter() - start
    events = kernel.processed_count
    return {"mode": mode.value, "events": events, "seconds": elapsed,
            "events_per_second": events / elapsed if elapsed else 0.0}
