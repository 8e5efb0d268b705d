"""Digests frozen across refactors: every ordering mode on every model.

Each small run's sequential outcome, a trace digest or the error it raises,
is pinned here as computed before the event record was restructured. A
change that alters any committed line, final state or error for any
(model, mode) pair fails this file. Draw-based modes must also reproduce
the pinned digest optimistically at 2 and 8 PEs, with the pinned metrics:
the same processed, rolled-back and message work under the same schedule.
"""

import hashlib
import json

import pytest

from tiewarp import errors
from tiewarp.harness import RunSpec, build_kernel, outcome
from tiewarp.kernel_optimistic import ChaosConfig, OptimisticKernel
from tiewarp.kernel_seq import run_sequential
from tiewarp.models import build_model
from scenarios import ScriptedModel
from tiewarp.timebase import OrderingMode

SEED = 7

MODELS = {
    "phold": lambda: build_model("phold", n_lps=8, end_time=10.0, remote_prob=0.5),
    "event-ties": lambda: build_model("event-ties", n_lps=6, end_time=4.0,
                                      chain_length=3, remote_prob=0.5),
    "event-ties-stress": lambda: build_model("event-ties-stress", n_lps=3, end_time=3.0,
                                             height=2, arity=2, remote_prob=0.6),
    "scripted-pair": ScriptedModel,
}

PHOLD_NO_DRAWS = "76a813277d5c565cb92284b0ee6baecd37a7268652b93282ab4ed795555b594f"
PHOLD_DRAWS = "5d9bd475cd6aa2e6d319d62d00552097316f5f8d50e663262bbf42deddea13af"

# (model, mode) -> sequential digest, or the name of the error the run raises.
# The "naive" rows were measured when the naive derivation was a flag on mode
# unbiased-single, before it became a mode of its own.
FROZEN = {
    ("phold", "none"): PHOLD_NO_DRAWS,
    ("phold", "biased"): PHOLD_NO_DRAWS,
    ("phold", "unbiased-single"): PHOLD_DRAWS,
    ("phold", "additive"): PHOLD_DRAWS,
    ("phold", "lex"): PHOLD_DRAWS,
    ("phold", "naive"): PHOLD_DRAWS,
    ("event-ties", "none"):
        "77f0a84dbe789283599128b265ee2921d1cd05f43d69b6269e06ae27778d99f0",
    ("event-ties", "biased"): "CausalityViolation",
    ("event-ties", "unbiased-single"): "ZeroOffsetForbidden",
    ("event-ties", "additive"):
        "c6b4d5cdf719bacfe927bb387fd22784947083d62b3d267ceae1afb9d99eb4d0",
    ("event-ties", "lex"):
        "91472ba3f8c5ece671a5f253e56a2f5aa8b5058e955d1d59617abb27b6464491",
    ("event-ties", "naive"): "CausalityViolation",
    ("event-ties-stress", "none"):
        "7802fc963c61e0243fdf349bde8c6323a6248e677644aac63d84f3e4a7e78f4c",
    ("event-ties-stress", "biased"): "CausalityViolation",
    ("event-ties-stress", "unbiased-single"): "ZeroOffsetForbidden",
    ("event-ties-stress", "additive"):
        "fe3f711366c533d4e9090c242bb77bfdf8d8fe810ec7f1f9d59ea08a736bc4b0",
    ("event-ties-stress", "lex"):
        "79bc4117fabc14834d323cbf1df8ac3a4b0517f563b9fd33d10ef437ec4babc3",
    ("event-ties-stress", "naive"): "CausalityViolation",
    ("scripted-pair", "none"):
        "c18e099c94625ed5445e69a5c0493eea1bf8aadc314bc73f8de0d7dbc6de20ec",
    ("scripted-pair", "biased"):
        "3002c522bea6bce6ea85f124edf93339898af303458d0e6bffe7a7152b5c5422",
    ("scripted-pair", "unbiased-single"): "ZeroOffsetForbidden",
    ("scripted-pair", "additive"):
        "1998c8c9fe94f44d82e5d715d94a9b9045d791870107c9a03b5c39079c160f7e",
    ("scripted-pair", "lex"):
        "6b0c7d5af6a2287b7de8b77a6b3154048c52cfc66526a9be453e01b3731ce7a1",
    ("scripted-pair", "naive"): "CausalityViolation",
}

# (model, mode, workers) -> OptimisticKernel.metrics() counters, in the order
# of METRIC_NAMES, of the chaos-seed-1 run whose digest is pinned above
METRIC_NAMES = ("processed", "rolled_back", "rollbacks", "stragglers",
                "antis_sent", "annihilations", "messages_sent", "gvt_rounds")
PHOLD_METRICS = {2: (79, 9, 4, 4, 3, 3, 25, 1), 8: (131, 61, 33, 18, 24, 24, 78, 1)}
SCRIPTED_METRICS = (5, 0, 0, 0, 0, 0, 0, 1)
FROZEN_METRICS = {
    **{("phold", mode, workers): counts
       for mode in ("unbiased-single", "additive", "lex", "naive")
       for workers, counts in PHOLD_METRICS.items()},
    ("event-ties", "additive", 2): (76, 4, 3, 3, 2, 2, 22, 1),
    ("event-ties", "additive", 8): (87, 15, 11, 8, 5, 5, 38, 1),
    ("event-ties", "lex", 2): (97, 25, 13, 8, 8, 8, 34, 1),
    ("event-ties", "lex", 8): (127, 55, 27, 10, 27, 27, 82, 1),
    ("event-ties-stress", "additive", 2): (82, 19, 11, 9, 14, 14, 52, 1),
    ("event-ties-stress", "additive", 8): (88, 25, 17, 11, 19, 19, 72, 1),
    ("event-ties-stress", "lex", 2): (88, 25, 11, 10, 15, 15, 54, 1),
    ("event-ties-stress", "lex", 8): (97, 34, 20, 13, 30, 30, 93, 1),
    **{("scripted-pair", mode, workers): SCRIPTED_METRICS
       for mode in ("additive", "lex") for workers in (2, 8)},
}

DIGEST_CASES = [case for case, want in FROZEN.items() if not hasattr(errors, want)]
ERROR_CASES = [case for case, want in FROZEN.items() if hasattr(errors, want)]
PARALLEL_CASES = [(model, mode) for model, mode in DIGEST_CASES
                  if OrderingMode.from_name(mode).uses_draws]


def test_every_model_and_mode_is_pinned():
    assert set(FROZEN) == {(model, mode.value) for model in MODELS
                           for mode in OrderingMode}


@pytest.mark.parametrize("model,mode", DIGEST_CASES)
def test_sequential_digest_is_frozen(model, mode):
    trace = run_sequential(MODELS[model](), OrderingMode.from_name(mode), SEED)
    assert trace.digest() == FROZEN[model, mode]


@pytest.mark.parametrize("model,mode", ERROR_CASES)
def test_sequential_error_is_frozen(model, mode):
    with pytest.raises(getattr(errors, FROZEN[model, mode])):
        run_sequential(MODELS[model](), OrderingMode.from_name(mode), SEED)


@pytest.mark.parametrize("workers", (2, 8))
@pytest.mark.parametrize("model,mode", PARALLEL_CASES)
def test_optimistic_digest_is_frozen(model, mode, workers):
    kernel = OptimisticKernel(MODELS[model](), OrderingMode.from_name(mode), SEED,
                              workers, chaos=ChaosConfig(1))
    assert kernel.run().digest() == FROZEN[model, mode]
    counts = dict(zip(METRIC_NAMES, FROZEN_METRICS[model, mode, workers]))
    processed = counts["processed"]
    efficiency = (processed - counts["rolled_back"]) / processed
    assert kernel.metrics() == {"workers": workers, **counts,
                                "efficiency": efficiency}


# The optimistic sweep: every (model, mode, PEs, chaos seed) cell's outcome
# and metrics(), as JSON rows, pinned by one SHA-256 per group of modes. The
# 108 draw-mode rows (lex, additive, naive) keep the value computed before
# rollback became strict in mode none; 27 of them, all naive, end in an
# error, which is pinned like a digest. The 36 mode-none rows, which strict
# rollback and the processing-order commit of ties changed, end in a digest.
SWEEP_MODELS = {
    "ties-c4": ("event-ties", dict(n_lps=8, remote_prob=0.7, chain_length=4,
                                   end_time=5.0)),
    "ties-c2": ("event-ties", dict(n_lps=16, remote_prob=0.5, chain_length=2,
                                   end_time=6.0)),
    "stress": ("event-ties-stress", dict(n_lps=8, height=2, arity=2,
                                         remote_prob=0.7, end_time=4.0)),
    "phold": ("phold", dict(n_lps=16, remote_prob=0.5, end_time=6.0)),
}
SWEEP_PES = (2, 5, 8)
SWEEP_CHAOS_SEEDS = (0, 1, 2)
SWEEP_DRAW_DIGEST = "a1915100d72655b0119adfa538bd01cfb3a9e58b45e7f682a94d38ef8c2927a9"
SWEEP_NONE_DIGEST = "b79cc8c31ed4a3b23c8994ac41dbfe19c7f00562fbe875cc5ad0b71c8e7ae267"


def sweep_rows(modes):
    rows = []
    for cell, (model, params) in SWEEP_MODELS.items():
        for mode in modes:
            for pes in SWEEP_PES:
                for chaos_seed in SWEEP_CHAOS_SEEDS:
                    spec = RunSpec(model=model, mode=mode, seed=1, workers=pes,
                                   chaos_seed=chaos_seed, max_delay=6,
                                   gvt_interval=32, **params)
                    kernel = build_kernel(spec, optimistic=True)
                    result = outcome(kernel)
                    rows.append([[cell, mode, pes, chaos_seed], result,
                                 kernel.metrics()])
    return rows


def sweep_digest(rows):
    text = json.dumps(rows, sort_keys=True)
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def test_optimistic_sweep_is_frozen_in_draw_modes():
    # the rows come in the order of the earlier 144-row sweep, less its
    # mode-none rows, so this is the hash of those 108 rows as they were
    rows = sweep_rows(("lex", "additive", "naive"))
    assert len(rows) == 108
    assert sum("error" in result for _, result, _ in rows) == 27
    assert sweep_digest(rows) == SWEEP_DRAW_DIGEST


def test_optimistic_sweep_is_frozen_in_mode_none():
    rows = sweep_rows(("none",))
    assert len(rows) == 36
    assert sum("error" in result for _, result, _ in rows) == 0
    assert sweep_digest(rows) == SWEEP_NONE_DIGEST
