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

from .errors import ConfigError
from .rngstream import DrawStream


class Emit(NamedTuple):
    """One event requested by a handler: destination, time offset, payload.

    ``forced_tiebreak`` overrides the kernel's tie-break draw and exists for
    scripted scenarios that replay fixed published values; real models leave
    it None. A NamedTuple, not a frozen dataclass: handlers build one per
    emitted event, and a tuple is the cheaper record to build.
    """

    dest_lp: int
    offset: float
    payload: object = None
    forced_tiebreak: int | None = None


class MeanState(NamedTuple):
    """Running mean of means; stays inside the hull of everything folded in."""

    mean_val: float = 0.0

    def fold(self, value: float) -> "MeanState":
        return MeanState((self.mean_val + value) / 2.0)


def stress_tree_node_count(height: int, arity: int) -> int:
    """Nodes in one zero-offset tree: levels 0..height, arity children each."""
    if arity == 1:
        return height + 1
    return (arity ** (height + 1) - 1) // (arity - 1)


@dataclass(frozen=True, kw_only=True)
class _BuiltinModel:
    """What the built-in models share: the run size and remote routing.

    Each built-in model is a frozen dataclass whose fields are its
    parameters, declared once with their defaults; ``build_model`` and
    ``RunSpec.model_params`` read those fields. The kernels read ``n_lps``
    and ``end_time`` from the model.
    """

    n_lps: int
    remote_prob: float = 0.1
    end_time: float = 10.0

    def __post_init__(self):
        if self.n_lps < 1:
            raise ConfigError(f"{self.name} needs at least one LP")
        if not 0.0 <= self.remote_prob <= 1.0:
            raise ConfigError(f"remote_prob {self.remote_prob} outside [0,1]")
        # no timestamp compares greater than NaN, so a NaN end never ends
        if not math.isfinite(self.end_time):
            raise ConfigError(f"end_time must be finite, got {self.end_time}")
        # every built-in model seeds its events at t = 1
        if self.end_time < 1:
            raise ConfigError(f"end_time must be >= 1, got {self.end_time}")


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
        if not 0 < self.mean_offset < math.inf:
            raise ConfigError(f"mean_offset must be positive and finite, got {self.mean_offset}")

    def initial_state(self, lp_id: int):
        return None

    def seed_events(self, lp_id: int, stream: DrawStream):
        # A seed's offset is measured from time zero, so it is the absolute
        # start timestamp.
        return [Emit(lp_id, 1.0, None)]

    def handle(self, state, event, stream: DrawStream):
        lp = event.dest_lp
        if stream.uniform() < self.remote_prob:
            dest = stream.pick_other(self.n_lps, lp)
        else:
            dest = lp
        offset = stream.exponential(self.mean_offset)
        return state, [Emit(dest, offset, None)]

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
        if self.chain_length < 1:
            raise ConfigError("chain_length must be >= 1")
        if self.end_time != int(self.end_time):
            raise ConfigError("event-ties end_time must be a positive integer")

    def initial_state(self, lp_id: int):
        return MeanState()

    def seed_events(self, lp_id: int, stream: DrawStream):
        return [Emit(lp_id, 1.0, stream.randint(0, 100))]

    def handle(self, state: MeanState, event, stream: DrawStream):
        lp = event.dest_lp
        new_state = state.fold(event.payload)
        val = stream.randint(0, 100)
        if stream.uniform() < self.remote_prob:
            if self.coupled:
                dest = int(new_state.mean_val) % self.n_lps
            else:
                dest = stream.pick_other(self.n_lps, lp)
        else:
            dest = lp
        # The chain holds chain_length events per timestep counting the
        # regular-offset head, so the event at depth chain_length-1 breaks it.
        if event.zero_offset_depth == self.chain_length - 1:
            offset = 1.0
        else:
            offset = 0.0
        return new_state, [Emit(dest, offset, val)]

    def final_value(self, state: MeanState):
        return state.mean_val

    def expected_net_events(self):
        return self.n_lps * int(self.end_time) * self.chain_length


@dataclass(frozen=True, kw_only=True)
class StressModel(_BuiltinModel):
    """Zero-offset tree model: the worst-case burst of simultaneous events.

    Every non-leaf event spawns ``arity`` zero-offset children, child i
    adding i to a descendant sum; the single all-first-child leaf (sum 0)
    seeds the next timestep's tree with a regular-offset event, so exactly
    one tree per lineage per timestep.
    """

    name = "event-ties-stress"
    height: int = 2
    arity: int = 2

    def __post_init__(self):
        super().__post_init__()
        if self.height < 0:
            raise ConfigError("tree height must be >= 0")
        if self.arity < 1:
            raise ConfigError("tree arity must be >= 1")
        if self.end_time != int(self.end_time):
            raise ConfigError("stress end_time must be a positive integer")

    def initial_state(self, lp_id: int):
        return MeanState()

    def seed_events(self, lp_id: int, stream: DrawStream):
        # Root of the first tree: level 0, descendant sum 0.
        return [Emit(lp_id, 1.0, (stream.randint(0, 100), 0, 0))]

    def _route(self, stream: DrawStream, lp: int) -> int:
        if stream.uniform() < self.remote_prob:
            return stream.pick_other(self.n_lps, lp)
        return lp

    def handle(self, state: MeanState, event, stream: DrawStream):
        lp = event.dest_lp
        val, level, descendant_sum = event.payload
        new_state = state.fold(val)
        emits = []
        if level < self.height:
            for i in range(self.arity):
                child_val = stream.randint(0, 100)
                dest = self._route(stream, lp)
                emits.append(Emit(dest, 0.0, (child_val, level + 1, descendant_sum + i)))
        elif descendant_sum == 0:
            next_val = stream.randint(0, 100)
            dest = self._route(stream, lp)
            emits.append(Emit(dest, 1.0, (next_val, 0, 0)))
        return new_state, emits

    def final_value(self, state: MeanState):
        return state.mean_val

    def expected_net_events(self):
        per_tree = stress_tree_node_count(self.height, self.arity)
        return self.n_lps * int(self.end_time) * per_tree


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
