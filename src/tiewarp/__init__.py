"""tiewarp: optimistic parallel simulation with deterministic random tie-breaking.

Virtual time here is a signature: a timestamp extended by an ordered sequence
of reproducible uniform draws. Simultaneous events, including zero-offset
chains, get an unbiased total order that every execution (sequential, or
optimistic with any worker count and any adversarial schedule) commits
identically, bit for bit.
"""

from .errors import (
    CausalityViolation,
    ConfigError,
    InsufficientSamples,
    SequenceCapExceeded,
    TieWarpError,
    UnmatchedAntiMessage,
    ZeroOffsetForbidden,
)
from .harness import (
    RunSpec,
    benchmark,
    execute,
    run_fairness,
    verify_determinism,
)
from .kernel_optimistic import ChaosConfig, OptimisticKernel
from .kernel_seq import SequentialKernel, run_sequential
from .models import (
    MODEL_NAMES,
    EventTiesModel,
    PholdModel,
    StressModel,
    build_model,
)
from .rngstream import DrawStream
from .timebase import DEFAULT_SEQUENCE_CAP, MODE_NAMES, OrderingMode
from .trace import Event, Trace

__version__ = "0.1.0"

__all__ = [
    "CausalityViolation",
    "ChaosConfig",
    "ConfigError",
    "DEFAULT_SEQUENCE_CAP",
    "DrawStream",
    "Event",
    "EventTiesModel",
    "InsufficientSamples",
    "MODE_NAMES",
    "MODEL_NAMES",
    "OptimisticKernel",
    "OrderingMode",
    "PholdModel",
    "RunSpec",
    "SequenceCapExceeded",
    "SequentialKernel",
    "StressModel",
    "TieWarpError",
    "Trace",
    "UnmatchedAntiMessage",
    "ZeroOffsetForbidden",
    "benchmark",
    "build_model",
    "execute",
    "run_fairness",
    "run_sequential",
    "verify_determinism",
    "__version__",
]
