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
    LivelockDetected,
    MalformedSignature,
    SequenceCapExceeded,
    TieWarpError,
    UnmatchedAntiMessage,
    ZeroOffsetForbidden,
)
from .harness import (
    FairnessReport,
    RunSpec,
    audit_trace,
    benchmark_sequential,
    execute,
    fairness_expected,
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
    stress_tree_node_count,
)
from .rngstream import DrawStream, Purpose, derive_stream_key, draw_at, to_unit_interval
from .timebase import (
    DEFAULT_SEQUENCE_CAP,
    MODE_NAMES,
    OrderingMode,
    TimeSignature,
    derive_child_signature,
    format_signature,
    sort_key,
)
from .trace import Event, Trace, first_divergence, read_trace

__version__ = "0.1.0"

__all__ = [
    "CausalityViolation",
    "ChaosConfig",
    "ConfigError",
    "DEFAULT_SEQUENCE_CAP",
    "DrawStream",
    "Event",
    "EventTiesModel",
    "FairnessReport",
    "InsufficientSamples",
    "LivelockDetected",
    "MODE_NAMES",
    "MODEL_NAMES",
    "MalformedSignature",
    "OptimisticKernel",
    "OrderingMode",
    "PholdModel",
    "Purpose",
    "RunSpec",
    "SequenceCapExceeded",
    "SequentialKernel",
    "StressModel",
    "TieWarpError",
    "TimeSignature",
    "Trace",
    "UnmatchedAntiMessage",
    "ZeroOffsetForbidden",
    "audit_trace",
    "benchmark_sequential",
    "build_model",
    "derive_child_signature",
    "derive_stream_key",
    "draw_at",
    "execute",
    "fairness_expected",
    "first_divergence",
    "format_signature",
    "read_trace",
    "run_fairness",
    "run_sequential",
    "sort_key",
    "stress_tree_node_count",
    "to_unit_interval",
    "verify_determinism",
    "__version__",
]
