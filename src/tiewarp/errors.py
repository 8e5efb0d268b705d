"""Exception types shared across the engine, and the checks of a count and
of a real number."""


class TieWarpError(Exception):
    """Base class for all engine errors."""


class ConfigError(TieWarpError):
    """Invalid run configuration (bad model parameters, mode mismatch, ...)."""


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


# Seeds are hashed as 64-bit words, so a seed outside [0, WORD_LIMIT)
# would run as the seed it equals modulo 2**64. Tie-break draws are 64-bit
# words too, written as fixed-width hex fields, so a forced one must be one.
WORD_LIMIT = 2 ** 64


def check_count(name: str, value, minimum: int, limit: int | None = None) -> None:
    """Refuse a count that is not an int in ``[minimum, limit)``, with a
    ``ConfigError``; a bool is not a count, as in ``RunSpec``."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ConfigError(f"{name} must be >= {minimum}")
    if limit is not None and value >= limit:
        raise ConfigError(f"{name} must be < {limit}")


def check_real(name: str, value) -> None:
    """Refuse a value that is not an int or a float, or an int out of float
    range, with a ``ConfigError``; a bool is not a number, as in ``RunSpec``."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{name} must be a real number, got {value!r}")
    try:
        float(value)
    except OverflowError:
        raise ConfigError(f"{name} is out of float range") from None
