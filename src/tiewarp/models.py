"""Benchmark models: PHOLD, event-ties chains, and zero-offset stress trees.

Every model is a pure handler: ``(LP state, event, model stream) -> (new
state, emitted events)``. Purity matters for rollback correctness: replaying
an event with the same state and the same stream cursor must reproduce the
same outputs bit for bit. States are immutable values so snapshots are free.

The two tie-heavy models accumulate a running mean of means, a deliberately
non-commutative fold (Mean(Mean(a,b),c) != Mean(Mean(a,c),b)), so any change
in the order of simultaneous events shows up in the final LP values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .errors import ConfigError, check_count, check_real
from .rngstream import DrawStream, uniform_below


class Emit(NamedTuple):
    """One event requested by a handler: destination, time offset, payload.

    ``forced_tiebreak`` overrides the kernel's tie-break draw and exists for
    models that replay fixed published values, such as the tests' scripted
    worked example; real models leave it None. A NamedTuple, not a frozen
    dataclass: handlers build one per emitted event, and a tuple is the
    cheaper record to build. The built-in handlers build it with
    ``tuple.__new__(Emit, (...))``, every field given, in one C call of
    about 150 ns; the class call goes through the NamedTuple's generated
    Python ``__new__`` and costs 350-450 ns. The record, its equality and
    its hash are the same either way, and tests and users keep the class
    call.
    """

    dest_lp: int
    offset: float
    payload: object = None
    forced_tiebreak: int | None = None


class MeanState(NamedTuple):
    """Running mean of means; stays inside the hull of everything folded in.

    ``fold`` runs once per handled event of the tie models, so it builds its
    result with ``tuple.__new__`` in one C call, as the handlers build
    ``Emit``; ``MeanState(x)`` builds the same record.
    """

    mean_val: float = 0.0

    def fold(self, value: float) -> "MeanState":
        return tuple.__new__(MeanState, ((self.mean_val + value) / 2.0,))


@dataclass(frozen=True, kw_only=True)
class _BuiltinModel:
    """What the built-in models share: the run size and remote routing.

    Each built-in model is a frozen dataclass whose fields are its
    parameters, declared once with their defaults; ``build_model`` and
    ``RunSpec.model_params`` read those fields. The kernels read ``n_lps``
    and ``end_time`` from the model. Counts (``n_lps``, ``chain_length``,
    ``height``, ``arity``) must be ints, and the other numbers ints or
    floats; a bool is neither.
    """

    n_lps: int
    remote_prob: float = 0.1
    end_time: float = 10.0

    def __post_init__(self):
        check_count("n_lps", self.n_lps, 1)
        check_real("remote_prob", self.remote_prob)
        check_real("end_time", self.end_time)
        if not 0.0 <= self.remote_prob <= 1.0:
            raise ConfigError(f"remote_prob {self.remote_prob} outside [0,1]")
        # no timestamp compares greater than NaN, so a NaN end never ends
        if not math.isfinite(self.end_time):
            raise ConfigError(f"end_time must be finite, got {self.end_time}")
        # every built-in model seeds its events at t = 1
        if self.end_time < 1:
            raise ConfigError(f"end_time must be >= 1, got {self.end_time}")
        # after the range check: NaN has no integer ratio. Not a field, so
        # it stays out of the model's parameters, equality and repr.
        object.__setattr__(self, "_remote_below", uniform_below(self.remote_prob))

    def _route(self, stream: DrawStream, lp: int) -> int:
        """The destination of an emit from LP ``lp``: with probability
        ``remote_prob`` a uniformly random other LP, else ``lp`` itself.

        The raw draw is tested against ``uniform_below(remote_prob)``, which
        is exactly ``stream.uniform() < remote_prob`` without its frame."""
        if stream.draw() < self._remote_below:
            return stream.pick_other(self.n_lps, lp)
        return lp


@dataclass(frozen=True, kw_only=True)
class PholdModel(_BuiltinModel):
    """Classic hold model: every event reschedules exactly one future event.

    Destination is self with probability 1 - remote_prob, otherwise a
    uniformly random other LP; the offset is exponential and strictly
    positive, so this model never creates zero-offset events and its LP
    state never changes.
    """

    name = "phold"
    mean_offset: float = 1.0

    def __post_init__(self):
        super().__post_init__()
        check_real("mean_offset", self.mean_offset)
        if not 0 < self.mean_offset < math.inf:
            raise ConfigError(f"mean_offset must be positive and finite, got {self.mean_offset}")

    def initial_state(self, lp_id: int):
        return None

    def seed_events(self, lp_id: int, stream: DrawStream):
        # A seed's offset is measured from time zero, so it is the absolute
        # start timestamp.
        return [Emit(lp_id, 1.0, None)]

    def handle(self, state, event, stream: DrawStream):
        dest = self._route(stream, event.dest_lp)
        return state, [tuple.__new__(Emit, (dest, stream.exponential(self.mean_offset),
                                            None, None))]

    def final_value(self, state):
        return None


@dataclass(frozen=True, kw_only=True)
class EventTiesModel(_BuiltinModel):
    """Zero-offset chain model; every event in the run ties with another.

    Each received event folds its value into the LP mean and emits one new
    event with a fresh random value. The emitted event is zero-offset until
    the chain reaches ``chain_length`` events (counting the regular-offset
    head), then jumps a whole timestep. The coupled variant routes remote
    sends by current LP state, making the model maximally order-sensitive.
    """

    name = "event-ties"
    remote_prob: float = 0.5
    chain_length: int = 2
    coupled: bool = False

    def __post_init__(self):
        super().__post_init__()
        check_count("chain_length", self.chain_length, 1)
        if not isinstance(self.coupled, bool):
            raise ConfigError(f"coupled must be a bool, got {self.coupled!r}")
        if self.end_time != int(self.end_time):
            raise ConfigError("event-ties end_time must be a positive integer")

    def initial_state(self, lp_id: int):
        return MeanState()

    def seed_events(self, lp_id: int, stream: DrawStream):
        return [Emit(lp_id, 1.0, stream.randint(0, 100))]

    def handle(self, state: MeanState, event, stream: DrawStream):
        lp = event.dest_lp
        new_state = state.fold(event.payload)
        val = stream.draw() % 101  # randint(0, 100), without its frame
        if not self.coupled:
            dest = self._route(stream, lp)
        elif stream.draw() < self._remote_below:  # _route's test
            dest = int(new_state.mean_val) % self.n_lps
        else:
            dest = lp
        # The chain holds chain_length events per timestep counting the
        # regular-offset head, so the event at depth chain_length-1 breaks it.
        if event.zero_offset_depth == self.chain_length - 1:
            offset = 1.0
        else:
            offset = 0.0
        return new_state, [tuple.__new__(Emit, (dest, offset, val, None))]

    def final_value(self, state: MeanState):
        return state.mean_val


@dataclass(frozen=True, kw_only=True)
class StressModel(_BuiltinModel):
    """Zero-offset tree model: the worst-case burst of simultaneous events.

    Every non-leaf event spawns ``arity`` zero-offset children, child i
    adding i to a descendant sum; the single all-first-child leaf (sum 0)
    seeds the next timestep's tree with a regular-offset event, so exactly
    one tree per lineage per timestep. The payload is (value, descendant
    sum). An event's level in its tree is its ``zero_offset_depth``: a root
    comes at offset 1.0 and each child at offset 0.0.
    """

    name = "event-ties-stress"
    height: int = 2
    arity: int = 2

    def __post_init__(self):
        super().__post_init__()
        check_count("height", self.height, 0)
        check_count("arity", self.arity, 1)
        if self.end_time != int(self.end_time):
            raise ConfigError("stress end_time must be a positive integer")

    def initial_state(self, lp_id: int):
        return MeanState()

    def seed_events(self, lp_id: int, stream: DrawStream):
        # Root of the first tree: descendant sum 0.
        return [Emit(lp_id, 1.0, (stream.randint(0, 100), 0))]

    def handle(self, state: MeanState, event, stream: DrawStream):
        lp = event.dest_lp
        val, descendant_sum = event.payload
        new_state = state.fold(val)
        emits = []
        if event.zero_offset_depth < self.height:
            for i in range(self.arity):
                child_val = stream.draw() % 101  # randint(0, 100)
                dest = self._route(stream, lp)
                emits.append(tuple.__new__(
                    Emit, (dest, 0.0, (child_val, descendant_sum + i), None)))
        elif descendant_sum == 0:
            next_val = stream.draw() % 101
            dest = self._route(stream, lp)
            emits.append(tuple.__new__(Emit, (dest, 1.0, (next_val, 0), None)))
        return new_state, emits

    def final_value(self, state: MeanState):
        return state.mean_val


MODELS = {cls.name: cls for cls in (PholdModel, EventTiesModel, StressModel)}
MODEL_NAMES = tuple(MODELS)


def model_class(name: str) -> type:
    """The model class registered under ``name``."""
    if name not in MODELS:
        raise ConfigError(f"unknown model {name!r}; expected one of {MODEL_NAMES}")
    return MODELS[name]


def build_model(name: str, **params):
    """Construct the model ``name`` from its fields; defaults are the class's
    own, and an undeclared or missing parameter is a ConfigError."""
    cls = model_class(name)
    try:
        return cls(**params)
    except TypeError as exc:
        raise ConfigError(f"model {name!r}: {exc}") from None
