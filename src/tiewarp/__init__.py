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
    compare_traces,
    execute,
    fairness_expected,
    run_fairness,
    verify_determinism,
)
from .kernel_optimistic import ChaosConfig, OptimisticKernel, run_optimistic
from .kernel_seq import SequentialKernel, run_sequential
from .models import (
    MODEL_NAMES,
    EventTiesConfig,
    EventTiesModel,
    PholdConfig,
    PholdModel,
    StressConfig,
    StressModel,
    build_model,
    stress_tree_node_count,
)
from .rngstream import DrawStream, Purpose, derive_stream_key, draw_at, to_unit_interval
from .timebase import (
    DEFAULT_SEQUENCE_CAP,
    MODE_NAMES,
    ComparatorStats,
    OrderingMode,
    TimeSignature,
    compare_signatures,
    derive_child_signature,
    format_signature,
    is_causal_prefix,
    parse_signature,
    sort_key,
)
from .trace import (
    Event,
    Trace,
    first_divergence,
    read_trace_csv,
)

__version__ = "0.1.0"

__all__ = [
    "CausalityViolation",
    "ChaosConfig",
    "ComparatorStats",
    "ConfigError",
    "DEFAULT_SEQUENCE_CAP",
    "DrawStream",
    "Event",
    "EventTiesConfig",
    "EventTiesModel",
    "FairnessReport",
    "InsufficientSamples",
    "LivelockDetected",
    "MODE_NAMES",
    "MODEL_NAMES",
    "MalformedSignature",
    "OptimisticKernel",
    "OrderingMode",
    "PholdConfig",
    "PholdModel",
    "Purpose",
    "RunSpec",
    "SequenceCapExceeded",
    "SequentialKernel",
    "StressConfig",
    "StressModel",
    "TieWarpError",
    "TimeSignature",
    "Trace",
    "UnmatchedAntiMessage",
    "ZeroOffsetForbidden",
    "audit_trace",
    "benchmark_sequential",
    "build_model",
    "compare_signatures",
    "compare_traces",
    "derive_child_signature",
    "derive_stream_key",
    "draw_at",
    "execute",
    "fairness_expected",
    "first_divergence",
    "format_signature",
    "is_causal_prefix",
    "parse_signature",
    "read_trace_csv",
    "run_fairness",
    "run_optimistic",
    "run_sequential",
    "sort_key",
    "stress_tree_node_count",
    "to_unit_interval",
    "verify_determinism",
    "__version__",
]
