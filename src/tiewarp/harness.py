"""Experiment orchestration on top of the two kernels, and its run records.

``build_kernel`` turns a flat RunSpec into a kernel, and running it has one
``outcome``: its trace digest, or the error it raised. ``execute`` runs a
spec into a trace. ``verify_determinism`` sweeps worker counts, chaos seeds,
and repeats, and reports whether every outcome agrees with the sequential
reference's. ``run_fairness`` runs the event-ties model on two LPs and
estimates the probability that the tail of LP 0's zero-offset chain commits
before the head of LP 1's, which has a known closed form for the unbiased
modes. ``benchmark`` times one run.

The run records are built here and nowhere else: ``summary``, the
determinism report and the fairness report are plain dicts of JSON values,
each carrying its ``schema``.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass, field, fields, replace
from typing import get_args, get_type_hints

from .errors import WORD_LIMIT, ConfigError, InsufficientSamples, check_count
from .kernel_optimistic import (
    DEFAULT_GVT_INTERVAL,
    DEFAULT_MAX_DELAY,
    ChaosConfig,
    OptimisticKernel,
)
from .kernel_seq import SequentialKernel, run_sequential
from .models import MODELS, EventTiesModel, build_model, model_class
from .rngstream import GENERATOR_NAME, GENERATOR_VERSION
from .timebase import DEFAULT_SEQUENCE_CAP, OrderingMode

SUMMARY_SCHEMA = "tiewarp.summary/2"
DETERMINISM_SCHEMA = "tiewarp.determinism/2"
FAIRNESS_SCHEMA = "tiewarp.fairness/1"


def _field(default, help_text: str):
    """A RunSpec field: its default and the one-line help of its CLI flag."""
    return field(default=default, metadata={"help": help_text})


@dataclass
class RunSpec:
    """Flat, serializable description of one simulation run.

    The single declaration of every run parameter, its default and its CLI
    help. A model parameter left None takes its default from the model class.
    Each value must have its field's declared type, or a ConfigError is
    raised: an int is accepted for a float field, and stored as a float, so
    ``3`` and ``3.0`` describe one run; a bool is never a number. Seeds lie
    in [0, 2**64), so no two seeds alias one draw key.
    """

    model: str = _field("phold", "simulation model")
    mode: str = _field("lex", "tie-breaking ordering mode")
    n_lps: int = _field(4, "number of LPs")
    end_time: float = _field(10.0, "simulation end time")
    seed: int = _field(1, "global seed, in [0, 2**64)")
    remote_prob: float | None = _field(None, "probability that an event goes to another LP")
    chain_length: int | None = _field(None, "event-ties chain length")
    height: int | None = _field(None, "stress tree height")
    arity: int | None = _field(None, "stress tree arity")
    coupled: bool = _field(False, "route event-ties remotes by LP state")
    mean_offset: float | None = _field(None, "phold mean exponential offset")
    workers: int = _field(1, "PE count; 1 = sequential")
    chaos_seed: int = _field(0, "scheduling adversary seed, in [0, 2**64)")
    max_delay: int = _field(DEFAULT_MAX_DELAY, "max extra in-flight steps per remote message")
    gvt_interval: int = _field(DEFAULT_GVT_INTERVAL, "processed events between GVT rounds")
    seq_cap: int = _field(DEFAULT_SEQUENCE_CAP, "max tie-break draws per signature")

    def __post_init__(self):
        for f in fields(self):
            value, allowed = getattr(self, f.name), FIELD_TYPES[f.name]
            if (isinstance(value, bool) != (bool in allowed)
                    or not isinstance(value, allowed)):
                raise ConfigError(f"{f.name} must be {f.type}, got {value!r}")
            if float in allowed and isinstance(value, int):
                try:
                    setattr(self, f.name, float(value))
                except OverflowError:
                    raise ConfigError(f"{f.name} is out of float range") from None
        for name in ("seed", "chaos_seed"):
            check_count(name, getattr(self, name), 0, WORD_LIMIT)

    def model_params(self) -> dict:
        """This spec's non-None values for the fields the model class declares.

        A parameter of another model must keep its default, or two specs
        would describe the same run."""
        declared = [f.name for f in fields(model_class(self.model))]
        for name, default in _MODEL_PARAM_DEFAULTS.items():
            if name not in declared and getattr(self, name) != default:
                raise ConfigError(f"model {self.model!r} takes no {name}, "
                                  f"got {getattr(self, name)!r}")
        return {name: getattr(self, name) for name in declared
                if getattr(self, name) is not None}

    def to_dict(self) -> dict:
        return asdict(self)


def _allowed_types(hint) -> tuple:
    """The classes a field's values may have; an int widens to a float."""
    allowed = get_args(hint) or (hint,)
    return allowed + (int,) if float in allowed else allowed


FIELD_TYPES = {name: _allowed_types(hint)
               for name, hint in get_type_hints(RunSpec).items()}
# every model's parameters, with their RunSpec defaults
_MODEL_PARAM_DEFAULTS = {f.name: getattr(RunSpec, f.name)
                         for model in MODELS.values() for f in fields(model)}


def build_run(spec: RunSpec):
    return (build_model(spec.model, **spec.model_params()),
            OrderingMode.from_name(spec.mode))


def build_kernel(spec: RunSpec, optimistic: bool):
    """The spec's kernel, built but not run: optimistic or sequential."""
    model, mode = build_run(spec)
    if not optimistic:
        return SequentialKernel(model, mode, spec.seed, seq_cap=spec.seq_cap)
    return OptimisticKernel(
        model, mode, spec.seed, spec.workers,
        chaos=ChaosConfig(spec.chaos_seed, spec.max_delay),
        gvt_interval=spec.gvt_interval, seq_cap=spec.seq_cap)


def execute(spec: RunSpec):
    """Run the spec; returns (trace, metrics or None for sequential runs)."""
    optimistic = spec.workers != 1
    kernel = build_kernel(spec, optimistic)
    return kernel.run(), kernel.metrics() if optimistic else None


def summary(spec: RunSpec, trace, metrics: dict | None, digest: str) -> dict:
    """The run summary: the RunSpec that produced ``trace``, the generator,
    the committed count, the final states, ``digest`` (the trace's digest)
    and ``metrics`` (None for a sequential run)."""
    return {
        "schema": SUMMARY_SCHEMA,
        "spec": spec.to_dict(),
        "generator": GENERATOR_NAME,
        "generator_version": GENERATOR_VERSION,
        "net_events": len(trace.committed),
        "final_states": {str(lp): value for lp, value in trace.final_states.items()},
        "digest": digest,
        "metrics": metrics,
    }


def outcome(kernel) -> dict:
    """Run a built kernel: ``{"digest": ...}``, or ``{"error": "Class: text"}`` if it raised."""
    try:
        return {"digest": kernel.run().digest()}
    except Exception as exc:
        return {"error": f"{type(exc).__name__}: {exc}"}


def verify_determinism(spec: RunSpec, workers=(1, 2, 4, 8),
                       chaos_seeds=(0, 1, 2), repeats: int = 2) -> dict:
    """Sweep (workers, chaos seed, repeat) and compare each optimistic run's
    outcome with the sequential reference's, whatever ``spec.workers`` says.

    Verdicts: "deterministic" when every outcome equals the reference's,
    errors included; "faulted" when a cell raised an error the reference did
    not; "nondeterministic" otherwise. An empty sweep, or a kernel that
    cannot be built, raises a ConfigError before anything runs.
    """
    if not workers or not chaos_seeds:
        raise ConfigError("a sweep needs at least one worker count and one chaos seed")
    check_count("repeats", repeats, 1)
    specs = [replace(spec, workers=w, chaos_seed=cs) for w in workers for cs in chaos_seeds]
    # building a kernel checks its spec, and an optimistic kernel checks all
    # that a sequential one does: every cell is checked before the first run,
    # and each check's kernel is dropped at once, so the sweep holds one
    # kernel at a time
    for cell_spec in specs:
        build_kernel(cell_spec, optimistic=True)
    reference = outcome(build_kernel(spec, optimistic=False))
    cells, outcomes = [], []
    for cell_spec in specs:
        for rep in range(repeats):
            result = outcome(build_kernel(cell_spec, optimistic=True))
            outcomes.append(result)
            cells.append({"workers": cell_spec.workers, "chaos_seed": cell_spec.chaos_seed,
                          "repeat": rep, **result})
    mismatches = [result for result in outcomes if result != reference]
    faults = sum("error" in result for result in mismatches)
    verdict = ("faulted" if faults else
               "nondeterministic" if mismatches else "deterministic")
    digests = {result["digest"] for result in [reference, *outcomes] if "digest" in result}
    return {
        "schema": DETERMINISM_SCHEMA,
        "spec": spec.to_dict(),
        "reference": reference,
        "cells": cells,
        "distinct_digests": sorted(digests),
        "faults": faults,
        "verdict": verdict,
    }


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
        # an int quotient rounds once, and underflows to 0.0 where a float
        # factorial would overflow
        return 1 / math.factorial(depth + 2)
    return None


def run_fairness(mode_name: str, depth: int, samples: int,
                 base_seed: int = 0) -> dict:
    """The fairness report of ``samples`` sequential runs from ``base_seed``:
    the successes, ``p_hat``, the closed form ``expected`` and whether
    ``p_hat`` lies within three binomial sigma (``half_width``) of it."""
    check_count("samples", samples, 0)
    if samples < 100:
        raise InsufficientSamples(
            f"{samples} samples cannot resolve the target interval; need >= 100")
    # every sample's seed, the first and the last, is a 64-bit word
    check_count("base_seed", base_seed, 0, WORD_LIMIT)
    check_count("base_seed + samples - 1", base_seed + samples - 1, 0, WORD_LIMIT)
    check_count("depth", depth, 0)
    mode = OrderingMode.from_name(mode_name)
    expected = fairness_expected(mode, depth)
    if expected is None:
        raise ConfigError(
            f"mode {mode.value} has no fairness closed form at depth {depth}; "
            f"use lex, additive, or unbiased-single at depth 0")
    # two chains of depth + 1 events at t = 1: LP 0's tail, identity
    # (0, depth), races LP 1's head, (1, 0)
    model = EventTiesModel(n_lps=2, chain_length=depth + 1, remote_prob=0.0,
                           end_time=1.0)
    successes = 0
    for i in range(samples):
        trace = run_sequential(model, mode, base_seed + i)
        index = {(ev.source_lp, ev.serial): i
                 for i, ev in enumerate(trace.committed)}
        if index[(0, depth)] < index[(1, 0)]:
            successes += 1
    p_hat = successes / samples
    half_width = 3.0 * math.sqrt(expected * (1.0 - expected) / samples)
    within = abs(p_hat - expected) <= half_width
    return {"schema": FAIRNESS_SCHEMA, "mode": mode.value, "depth": depth,
            "samples": samples, "successes": successes, "p_hat": p_hat,
            "expected": expected, "half_width": half_width, "within": within}


def benchmark(spec: RunSpec) -> dict:
    """Wall-clock one run of the spec's kernel, chosen as ``execute`` does."""
    kernel = build_kernel(spec, spec.workers != 1)
    start = time.perf_counter()
    events = len(kernel.run().committed)
    elapsed = time.perf_counter() - start
    return {"mode": kernel.mode.value, "workers": spec.workers, "events": events,
            "seconds": elapsed, "events_per_second": events / elapsed if elapsed else 0.0}
