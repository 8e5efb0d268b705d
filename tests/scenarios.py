"""Test-side models and counts: the worked two-LP example, and the net
event counts of the tie models in closed form.

The scripted model replays a fixed pair of event chains with pinned
tie-break fractions, the same walkthrough used to explain the ordering
modes: chain A,A1,A2 on LP 0 and chain B,B1 on LP 1, all five events at
timestamp 1, with fractions 0.1/0.40/0.20 and 0.15/0.30. The expected
committed orders under each mode are exported as constants so tests and
demos never recompute them.
"""

from __future__ import annotations

from tiewarp.models import Emit, StressModel
from tiewarp.rngstream import DrawStream


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


def stress_tree_node_count(height: int, arity: int) -> int:
    """Nodes in one zero-offset tree: levels 0..height, arity children each."""
    if arity == 1:
        return height + 1
    return (arity ** (height + 1) - 1) // (arity - 1)


def expected_net_events(model) -> int:
    """Net committed events of an event-ties or stress model's run: each LP
    runs one chain, or one tree, per unit of time."""
    if isinstance(model, StressModel):
        per_step = stress_tree_node_count(model.height, model.arity)
    else:
        per_step = model.chain_length
    return model.n_lps * int(model.end_time) * per_step
