"""Digests frozen across refactors: every ordering mode on every model.

Each small run's sequential outcome, a trace digest or the error it raises,
is pinned here as computed before the event record was restructured. A
change that alters any committed line, final state or error for any
(model, mode) pair fails this file. Draw-based modes must also reproduce
the pinned digest optimistically at 2 and 8 PEs.
"""

import pytest

from tiewarp import errors
from tiewarp.kernel_optimistic import run_optimistic
from tiewarp.kernel_seq import run_sequential
from tiewarp.models import build_model
from tiewarp.scenarios import ScriptedModel
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

# (model, mode) -> sequential digest, or the name of the error the run raises
FROZEN = {
    ("phold", "none"): PHOLD_NO_DRAWS,
    ("phold", "biased"): PHOLD_NO_DRAWS,
    ("phold", "unbiased-single"): PHOLD_DRAWS,
    ("phold", "additive"): PHOLD_DRAWS,
    ("phold", "lex"): PHOLD_DRAWS,
    ("event-ties", "none"):
        "77f0a84dbe789283599128b265ee2921d1cd05f43d69b6269e06ae27778d99f0",
    ("event-ties", "biased"): "CausalityViolation",
    ("event-ties", "unbiased-single"): "ZeroOffsetForbidden",
    ("event-ties", "additive"):
        "c6b4d5cdf719bacfe927bb387fd22784947083d62b3d267ceae1afb9d99eb4d0",
    ("event-ties", "lex"):
        "91472ba3f8c5ece671a5f253e56a2f5aa8b5058e955d1d59617abb27b6464491",
    ("event-ties-stress", "none"):
        "7802fc963c61e0243fdf349bde8c6323a6248e677644aac63d84f3e4a7e78f4c",
    ("event-ties-stress", "biased"): "CausalityViolation",
    ("event-ties-stress", "unbiased-single"): "ZeroOffsetForbidden",
    ("event-ties-stress", "additive"):
        "fe3f711366c533d4e9090c242bb77bfdf8d8fe810ec7f1f9d59ea08a736bc4b0",
    ("event-ties-stress", "lex"):
        "79bc4117fabc14834d323cbf1df8ac3a4b0517f563b9fd33d10ef437ec4babc3",
    ("scripted-pair", "none"):
        "c18e099c94625ed5445e69a5c0493eea1bf8aadc314bc73f8de0d7dbc6de20ec",
    ("scripted-pair", "biased"):
        "3002c522bea6bce6ea85f124edf93339898af303458d0e6bffe7a7152b5c5422",
    ("scripted-pair", "unbiased-single"): "ZeroOffsetForbidden",
    ("scripted-pair", "additive"):
        "1998c8c9fe94f44d82e5d715d94a9b9045d791870107c9a03b5c39079c160f7e",
    ("scripted-pair", "lex"):
        "6b0c7d5af6a2287b7de8b77a6b3154048c52cfc66526a9be453e01b3731ce7a1",
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
    trace = run_optimistic(MODELS[model](), OrderingMode.from_name(mode), SEED,
                           workers, chaos_seed=1)
    assert trace.digest() == FROZEN[model, mode]
