"""Exception types shared across the engine."""


class TieWarpError(Exception):
    """Base class for all engine errors."""


class ConfigError(TieWarpError):
    """Invalid run configuration (bad model parameters, mode mismatch, ...)."""


class MalformedSignature(TieWarpError):
    """A time signature does not satisfy the shape required by its mode."""


class ZeroOffsetForbidden(ConfigError):
    """Zero-offset event creation attempted in a mode that rejects it."""


class SequenceCapExceeded(ConfigError):
    """A zero-offset chain grew past the configured tie-break sequence cap."""


class CausalityViolation(TieWarpError):
    """An event was created that orders before already-committed history."""


class UnmatchedAntiMessage(TieWarpError):
    """An anti-message can no longer meet its positive twin; kernel bug."""


class InsufficientSamples(ConfigError):
    """Fairness statistics requested with too few seeds."""
