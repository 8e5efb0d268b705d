"""Hand-scripted scenarios: the worked two-LP example and fairness probes.

The scripted model replays a fixed pair of event chains with pinned
tie-break fractions, the same walkthrough used to explain the ordering
modes: chain A,A1,A2 on LP 0 and chain B,B1 on LP 1, all five events at
timestamp 1, with fractions 0.1/0.40/0.20 and 0.15/0.30. The expected
committed orders under each mode are exported as constants so tests and
demos never recompute them.

TiePairModel stages one zero-offset chain against one lone event so fairness
experiments can measure the probability that the chain's deepest descendant
commits before the independent event.
"""

from __future__ import annotations

from .models import Emit, MeanState
from .rngstream import DrawStream


def frac_to_draw(fraction: float) -> int:
    """Map a unit-interval fraction onto the integer draw scale."""
    if not 0.0 <= fraction < 1.0:
        raise ValueError(f"fraction {fraction} outside [0, 1)")
    return int(fraction * 2.0 ** 64)


# name, lp, parent name (None for a seed), offset, tie-break fraction
TABLE_SCRIPT = (
    ("A", 0, None, 1.0, 0.1),
    ("B", 1, None, 1.0, 0.15),
    ("A1", 0, "A", 0.0, 0.40),
    ("B1", 1, "B", 0.0, 0.30),
    ("A2", 0, "A1", 0.0, 0.20),
)

# Additive sums: A=0.1, B=0.15, B1=0.45, A1=0.50, A2=0.70.
SCRIPT_ADDITIVE_ORDER = ("A", "B", "B1", "A1", "A2")
# Lexicographic: [0.1] < [0.1,0.4] < [0.1,0.4,0.2] < [0.15] < [0.15,0.3].
SCRIPT_LEX_ORDER = ("A", "A1", "A2", "B", "B1")


class ScriptedModel:
    """Replays TABLE_SCRIPT; LP state is the tuple of names it processed."""

    name = "scripted-pair"
    n_lps = 2
    end_time = 2.0

    def __init__(self):
        self._seeds = {}
        self._children = {}
        for name, lp, parent, offset, frac in TABLE_SCRIPT:
            row = (name, lp, offset, frac_to_draw(frac))
            if parent is None:
                self._seeds.setdefault(lp, []).append(row)
            else:
                self._children.setdefault(parent, []).append(row)

    def initial_state(self, lp_id: int):
        return ()

    def seed_events(self, lp_id: int, stream: DrawStream):
        return [Emit(lp, offset, name, forced_tiebreak=draw)
                for name, lp, offset, draw in self._seeds.get(lp_id, [])]

    def handle(self, state, event, stream: DrawStream):
        name = event.payload
        emits = [Emit(lp, offset, child, forced_tiebreak=draw)
                 for child, lp, offset, draw in self._children.get(name, [])]
        return state + (name,), emits

    def final_value(self, state):
        return state


def committed_names(trace) -> tuple:
    """The scripted events' names (their payloads) in commit order."""
    return tuple(ev.payload for ev in trace.committed)


class TiePairModel:
    """One zero-offset chain on LP 0 racing one lone event on LP 1.

    The chain seed carries counter 0 and each link emits a self-addressed
    zero-offset successor until the counter reaches ``depth``, consuming one
    real tie-break draw per link. LP 1 seeds a single event and stays quiet.
    The deepest chain event has identity (lp 0, serial ``depth``); the lone
    event is (lp 1, serial 0).
    """

    name = "tie-pair"
    n_lps = 2
    end_time = 2.0

    def __init__(self, depth: int):
        if depth < 0:
            raise ValueError("depth must be >= 0")
        self.depth = depth

    def initial_state(self, lp_id: int):
        return MeanState()

    def seed_events(self, lp_id: int, stream: DrawStream):
        return [Emit(lp_id, 1.0, 0)]

    def handle(self, state: MeanState, event, stream: DrawStream):
        counter = event.payload
        new_state = state.fold(float(counter))
        if event.dest_lp == 0 and counter < self.depth:
            return new_state, [Emit(0, 0.0, counter + 1)]
        return new_state, []

    def final_value(self, state: MeanState):
        return state.mean_val

    def target_identity(self) -> tuple:
        return (0, self.depth)

    def rival_identity(self) -> tuple:
        return (1, 0)
