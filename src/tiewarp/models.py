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

from dataclasses import dataclass

from .errors import ConfigError
from .rngstream import DrawStream


@dataclass(frozen=True)
class Emit:
    """One event requested by a handler: destination, time offset, payload.

    ``forced_tiebreak`` overrides the kernel's tie-break draw and exists for
    scripted scenarios that replay fixed published values; real models leave
    it None.
    """

    dest_lp: int
    offset: float
    payload: object = None
    forced_tiebreak: int | None = None


@dataclass(frozen=True)
class MeanState:
    """Running mean of means; stays inside the hull of everything folded in."""

    mean_val: float = 0.0

    def fold(self, value: float) -> "MeanState":
        return MeanState((self.mean_val + value) / 2.0)


@dataclass(frozen=True)
class PholdConfig:
    n_lps: int
    remote_prob: float = 0.1
    mean_offset: float = 1.0
    end_time: float = 10.0


@dataclass(frozen=True)
class EventTiesConfig:
    n_lps: int
    remote_prob: float = 0.5
    chain_length: int = 2
    end_time: float = 10.0
    coupled: bool = False


@dataclass(frozen=True)
class StressConfig:
    n_lps: int
    remote_prob: float = 0.1
    height: int = 2
    arity: int = 2
    end_time: float = 10.0


def stress_tree_node_count(height: int, arity: int) -> int:
    """Nodes in one zero-offset tree: levels 0..height, arity children each."""
    if arity == 1:
        return height + 1
    return (arity ** (height + 1) - 1) // (arity - 1)


class _ConfiguredModel:
    """What the built-in models share: a validated config and the run size.

    Every config class declares ``n_lps``, ``remote_prob`` and ``end_time``;
    the kernels read the LP count and the end time from the model.
    """

    def __init__(self, cfg):
        if cfg.n_lps < 1:
            raise ConfigError(f"{self.name} needs at least one LP")
        if not 0.0 <= cfg.remote_prob <= 1.0:
            raise ConfigError(f"remote_prob {cfg.remote_prob} outside [0,1]")
        self.cfg = cfg
        self.n_lps = cfg.n_lps
        self.end_time = float(cfg.end_time)


class PholdModel(_ConfiguredModel):
    """Classic hold model: every event reschedules exactly one future event.

    Destination is self with probability 1 - remote_prob, otherwise a
    uniformly random other LP; the offset is exponential and strictly
    positive, so this model never creates zero-offset events and its LP
    state never changes.
    """

    name = "phold"

    def __init__(self, cfg: PholdConfig):
        super().__init__(cfg)
        if cfg.mean_offset <= 0:
            raise ConfigError("mean_offset must be positive")

    def initial_state(self, lp_id: int):
        return None

    def seed_events(self, lp_id: int, stream: DrawStream):
        # Seed emits are measured from the virtual root at time zero, so the
        # offset is the absolute start timestamp.
        return [Emit(lp_id, 1.0, None)]

    def handle(self, state, event, stream: DrawStream):
        cfg = self.cfg
        lp = event.dest_lp
        if stream.uniform() < cfg.remote_prob:
            dest = stream.pick_other(cfg.n_lps, lp)
        else:
            dest = lp
        offset = stream.exponential(cfg.mean_offset)
        return state, [Emit(dest, offset, None)]

    def final_value(self, state):
        return None

    def expected_net_events(self):
        return None


class EventTiesModel(_ConfiguredModel):
    """Zero-offset chain model; every event in the run ties with another.

    Each received event folds its value into the LP mean and emits one new
    event with a fresh random value. The emitted event is zero-offset until
    the chain reaches ``chain_length`` events (counting the regular-offset
    head), then jumps a whole timestep. The coupled variant routes remote
    sends by current LP state, making the model maximally order-sensitive.
    """

    name = "event-ties"

    def __init__(self, cfg: EventTiesConfig):
        super().__init__(cfg)
        if cfg.chain_length < 1:
            raise ConfigError("chain_length must be >= 1")
        if cfg.end_time < 1 or cfg.end_time != int(cfg.end_time):
            raise ConfigError("event-ties end_time must be a positive integer")

    def initial_state(self, lp_id: int):
        return MeanState()

    def seed_events(self, lp_id: int, stream: DrawStream):
        return [Emit(lp_id, 1.0, stream.randint(0, 100))]

    def handle(self, state: MeanState, event, stream: DrawStream):
        cfg = self.cfg
        lp = event.dest_lp
        new_state = state.fold(event.payload)
        val = stream.randint(0, 100)
        if stream.uniform() < cfg.remote_prob:
            if cfg.coupled:
                dest = int(new_state.mean_val) % cfg.n_lps
            else:
                dest = stream.pick_other(cfg.n_lps, lp)
        else:
            dest = lp
        # The chain holds chain_length events per timestep counting the
        # regular-offset head, so the event at depth chain_length-1 breaks it.
        if event.zero_offset_depth == cfg.chain_length - 1:
            offset = 1.0
        else:
            offset = 0.0
        return new_state, [Emit(dest, offset, val)]

    def final_value(self, state: MeanState):
        return state.mean_val

    def expected_net_events(self):
        return self.cfg.n_lps * int(self.cfg.end_time) * self.cfg.chain_length


class StressModel(_ConfiguredModel):
    """Zero-offset tree model: the worst-case burst of simultaneous events.

    Every non-leaf event spawns ``arity`` zero-offset children, child i
    adding i to a descendant sum; the single all-first-child leaf (sum 0)
    seeds the next timestep's tree with a regular-offset event, so exactly
    one tree per lineage per timestep.
    """

    name = "event-ties-stress"

    def __init__(self, cfg: StressConfig):
        super().__init__(cfg)
        if cfg.height < 0:
            raise ConfigError("tree height must be >= 0")
        if cfg.arity < 1:
            raise ConfigError("tree arity must be >= 1")
        if cfg.end_time < 1 or cfg.end_time != int(cfg.end_time):
            raise ConfigError("stress end_time must be a positive integer")

    def initial_state(self, lp_id: int):
        return MeanState()

    def seed_events(self, lp_id: int, stream: DrawStream):
        # Root of the first tree: level 0, descendant sum 0.
        return [Emit(lp_id, 1.0, (stream.randint(0, 100), 0, 0))]

    def _route(self, stream: DrawStream, lp: int) -> int:
        if stream.uniform() < self.cfg.remote_prob:
            return stream.pick_other(self.cfg.n_lps, lp)
        return lp

    def handle(self, state: MeanState, event, stream: DrawStream):
        cfg = self.cfg
        lp = event.dest_lp
        val, level, descendant_sum = event.payload
        new_state = state.fold(val)
        emits = []
        if level < cfg.height:
            for i in range(cfg.arity):
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
        per_tree = stress_tree_node_count(self.cfg.height, self.cfg.arity)
        return self.cfg.n_lps * int(self.cfg.end_time) * per_tree


MODELS = {
    "phold": (PholdModel, PholdConfig),
    "event-ties": (EventTiesModel, EventTiesConfig),
    "event-ties-stress": (StressModel, StressConfig),
}
MODEL_NAMES = tuple(MODELS)


def model_classes(name: str) -> tuple:
    """The (model class, config class) pair registered under ``name``."""
    if name not in MODELS:
        raise ConfigError(f"unknown model {name!r}; expected one of {MODEL_NAMES}")
    return MODELS[name]


def build_model(name: str, **params):
    """Construct a model from its config class's fields; defaults are the
    config class's own, and an undeclared or missing parameter is a ConfigError."""
    model_class, config_class = model_classes(name)
    try:
        cfg = config_class(**params)
    except TypeError as exc:
        raise ConfigError(f"model {name!r}: {exc}") from None
    return model_class(cfg)
