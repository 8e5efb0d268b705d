"""Model semantics: handler contracts, closed-form event counts, configs."""

import inspect
import math
import random
from dataclasses import fields, replace
from typing import get_type_hints

import pytest

from tiewarp.errors import ConfigError
from tiewarp.kernel_seq import run_sequential
from tiewarp.models import (
    Emit,
    EventTiesModel,
    MODELS,
    MODEL_NAMES,
    MeanState,
    PholdModel,
    StressModel,
    build_model,
)
from tiewarp.rngstream import DrawStream, lp_keys, mix64
from tiewarp.timebase import OrderingMode
from tiewarp.trace import Event

from scenarios import expected_net_events, stress_tree_node_count


def make_event(dest_lp, payload, depth=0, ts=1.0):
    return Event(0, dest_lp, 0, dest_lp, ts,
                 payload=payload, zero_offset_depth=depth)


def count_tree_nodes_brute_force(height, arity):
    """Independent oracle: walk the tree the handler would build."""
    def walk(level):
        if level == height:
            return 1
        return 1 + sum(walk(level + 1) for _ in range(arity))
    return walk(0)


def test_mean_fold_is_order_sensitive():
    # Mean(Mean(0,10),20)=(0/2+10/2)/2... worked by hand:
    # fold 10 then 20: ((0+10)/2 + 20)/2 = 12.5
    # fold 20 then 10: ((0+20)/2 + 10)/2 = 10.0
    a = MeanState().fold(10).fold(20)
    b = MeanState().fold(20).fold(10)
    assert a.mean_val == 12.5
    assert b.mean_val == 10.0


def test_phold_config_validation():
    with pytest.raises(ConfigError):
        PholdModel(n_lps=0)
    with pytest.raises(ConfigError):
        PholdModel(n_lps=2, remote_prob=1.5)
    with pytest.raises(ConfigError):
        PholdModel(n_lps=2, mean_offset=0.0)
    with pytest.raises(ConfigError, match="mean_offset"):
        PholdModel(n_lps=2, mean_offset=math.nan)
    with pytest.raises(ConfigError, match="mean_offset"):
        PholdModel(n_lps=2, mean_offset=math.inf)


@pytest.mark.parametrize("name", MODEL_NAMES)
@pytest.mark.parametrize("remote_prob", (math.nan, math.inf, -math.inf, -0.5))
def test_remote_prob_outside_the_unit_interval_is_a_config_error(name, remote_prob):
    # checked before the routing threshold is taken: NaN has no integer ratio
    with pytest.raises(ConfigError, match="remote_prob"):
        build_model(name, n_lps=2, end_time=2.0, remote_prob=remote_prob)


@pytest.mark.parametrize("name", MODEL_NAMES)
@pytest.mark.parametrize("end_time", (math.nan, math.inf))
def test_non_finite_end_time_is_a_config_error(name, end_time):
    # no timestamp compares greater than NaN, so a NaN end would never end
    # the run; the check is made when the model is built
    with pytest.raises(ConfigError, match="end_time"):
        build_model(name, n_lps=2, end_time=end_time)


def test_ties_config_validation():
    with pytest.raises(ConfigError):
        EventTiesModel(n_lps=2, chain_length=0)
    with pytest.raises(ConfigError):
        EventTiesModel(n_lps=2, end_time=2.5)
    with pytest.raises(ConfigError):
        StressModel(n_lps=2, height=-1)
    with pytest.raises(ConfigError):
        StressModel(n_lps=2, arity=0)
    with pytest.raises(ConfigError):
        build_model("no-such-model", n_lps=2)


# every model paired with each of its int-typed fields
INT_FIELDS = [(name, field) for name, cls in MODELS.items()
              for field, hint in get_type_hints(cls).items() if hint is int]


def test_int_fields_are_the_counts():
    assert sorted(INT_FIELDS) == [
        ("event-ties", "chain_length"), ("event-ties", "n_lps"),
        ("event-ties-stress", "arity"), ("event-ties-stress", "height"),
        ("event-ties-stress", "n_lps"), ("phold", "n_lps")]


@pytest.mark.parametrize("value", (2.5, True, "3"), ids=("float", "bool", "str"))
@pytest.mark.parametrize("name, field", INT_FIELDS)
def test_models_refuse_non_integer_counts(name, field, value):
    # a float chain length never ends its chain, and a bool would run as 1
    params = {"n_lps": 2, "end_time": 2.0, field: value}
    with pytest.raises(ConfigError, match=f"^{field} must be an integer, got "):
        build_model(name, **params)
    with pytest.raises(ConfigError, match=f"^{field} must be an integer, got "):
        MODELS[name](**params)


# every model paired with each of its float-typed fields
REAL_FIELDS = [(name, field) for name, cls in MODELS.items()
               for field, hint in get_type_hints(cls).items() if hint is float]


def test_real_fields_are_the_other_numbers():
    assert sorted(REAL_FIELDS) == [
        ("event-ties", "end_time"), ("event-ties", "remote_prob"),
        ("event-ties-stress", "end_time"), ("event-ties-stress", "remote_prob"),
        ("phold", "end_time"), ("phold", "mean_offset"), ("phold", "remote_prob")]


@pytest.mark.parametrize("value", (True, "1"), ids=("bool", "str"))
@pytest.mark.parametrize("name, field", REAL_FIELDS)
def test_models_refuse_numbers_that_are_not_real(name, field, value):
    # True would run as 1.0, and a string would die with a bare TypeError
    params = {"n_lps": 2, "end_time": 2.0, field: value}
    with pytest.raises(ConfigError, match=f"^{field} must be a real number, got "):
        build_model(name, **params)
    with pytest.raises(ConfigError, match=f"^{field} must be a real number, got "):
        MODELS[name](**params)


def test_models_refuse_an_int_out_of_float_range():
    with pytest.raises(ConfigError, match="^end_time is out of float range"):
        build_model("phold", n_lps=2, end_time=10 ** 400)


@pytest.mark.parametrize("value", (1, "no"))
def test_event_ties_refuses_a_coupled_that_is_not_a_bool(value):
    # both would run coupled
    with pytest.raises(ConfigError, match="^coupled must be a bool, got "):
        build_model("event-ties", n_lps=2, coupled=value)
    with pytest.raises(ConfigError, match="^coupled must be a bool, got "):
        EventTiesModel(n_lps=2, coupled=value)


def test_build_model_rejects_undeclared_and_missing_parameters():
    with pytest.raises(ConfigError, match="chain_length"):
        build_model("phold", n_lps=2, chain_length=3)
    with pytest.raises(ConfigError, match="n_lps"):
        build_model("event-ties", end_time=3.0)


def test_phold_handler_contract():
    model = PholdModel(n_lps=8, remote_prob=0.3)
    stream = DrawStream(lp_keys(mix64(3), 2)[1])
    remote = 0
    n = 20_000
    for _ in range(n):
        state, emits = model.handle(None, make_event(2, None), stream)
        assert state is None
        assert len(emits) == 1
        assert emits[0].offset > 0.0
        if emits[0].dest_lp != 2:
            remote += 1
    # remote fraction is binomial(n, 0.3): 4 sigma is ~0.013
    assert abs(remote / n - 0.3) < 0.015


def test_phold_never_emits_remote_at_prob_zero():
    model = PholdModel(n_lps=8, remote_prob=0.0)
    stream = DrawStream(lp_keys(mix64(3), 5)[1])
    for _ in range(500):
        _, emits = model.handle(None, make_event(5, None), stream)
        assert emits[0].dest_lp == 5


ROUTED = {"phold": {"n_lps": 8, "end_time": 8.0},
          "event-ties": {"n_lps": 6, "end_time": 4.0, "chain_length": 3},
          "event-ties-stress": {"n_lps": 4, "end_time": 3.0, "height": 2, "arity": 2}}


@pytest.mark.parametrize("name", ROUTED)
def test_remote_prob_zero_never_routes_remotely_and_one_always_does(name):
    for remote_prob, remote in ((0.0, False), (1.0, True)):
        model = build_model(name, remote_prob=remote_prob, **ROUTED[name])
        trace = run_sequential(model, OrderingMode.LEX_SEQUENCE, 4)
        children = [ev for ev in trace.committed if ev.parent_lp is not None]
        assert len(children) > 50
        assert all((ev.dest_lp != ev.source_lp) == remote for ev in children)
    coupled = build_model("event-ties", remote_prob=0.0, coupled=True, **ROUTED["event-ties"])
    trace = run_sequential(coupled, OrderingMode.LEX_SEQUENCE, 4)
    assert all(ev.dest_lp == ev.source_lp for ev in trace.committed)


@pytest.mark.parametrize("remote_prob", (0.0, 2.0**-53, 3 * 2.0**-53, 0.1, 0.3, 0.5,
                                         1 / 3, 1 - 2.0**-53, 1.0))
def test_route_is_uniform_below_remote_prob(remote_prob):
    # the raw draw against the integer threshold routes as uniform() < p
    # did, draw for draw; the threshold is no field of the model
    model = PholdModel(n_lps=7, remote_prob=remote_prob)
    routed, oracle = (DrawStream(lp_keys(mix64(11), 3)[1]) for _ in range(2))
    for _ in range(3000):
        want = oracle.pick_other(7, 3) if oracle.uniform() < remote_prob else 3
        assert model._route(routed, 3) == want
        assert routed.cursor == oracle.cursor
    assert "_remote_below" not in {f.name for f in fields(model)}
    assert "_remote_below" not in repr(model)
    assert replace(model) == model == PholdModel(n_lps=7, remote_prob=remote_prob)


def test_ties_chain_offsets():
    model = EventTiesModel(n_lps=4, remote_prob=0.0, chain_length=3)
    stream = DrawStream(lp_keys(mix64(9), 1)[1])
    # depths 0 and 1 continue the chain at zero offset; depth 2 breaks it
    for depth, want_offset in ((0, 0.0), (1, 0.0), (2, 1.0)):
        _, emits = model.handle(MeanState(), make_event(1, 50, depth=depth), stream)
        assert len(emits) == 1
        assert emits[0].offset == want_offset


def test_ties_chain_length_one_never_zero_offset():
    model = EventTiesModel(n_lps=4, chain_length=1)
    stream = DrawStream(lp_keys(mix64(9), 0)[1])
    for _ in range(200):
        _, emits = model.handle(MeanState(), make_event(0, 10, depth=0), stream)
        assert emits[0].offset == 1.0


def test_ties_folds_payload_into_state():
    model = EventTiesModel(n_lps=4)
    stream = DrawStream(lp_keys(mix64(9), 2)[1])
    state, _ = model.handle(MeanState(40.0), make_event(2, 60), stream)
    assert state.mean_val == 50.0


def test_ties_coupled_routing_follows_state():
    model = EventTiesModel(n_lps=5, remote_prob=1.0, coupled=True)
    stream = DrawStream(lp_keys(mix64(9), 3)[1])
    state, emits = model.handle(MeanState(24.0), make_event(3, 40), stream)
    # new mean is 32.0; destination is floor(32) mod 5 = 2
    assert state.mean_val == 32.0
    assert emits[0].dest_lp == 2


def test_stress_node_count_formula_matches_brute_force():
    for height in range(0, 6):
        for arity in range(1, 4):
            assert stress_tree_node_count(height, arity) == \
                count_tree_nodes_brute_force(height, arity), (height, arity)


def test_stress_handler_fanout_and_leaf_rule():
    model = StressModel(n_lps=4, remote_prob=0.0, height=2, arity=3)
    stream = DrawStream(lp_keys(mix64(9), 1)[1])
    # interior node, level 1 by its zero-offset depth: arity children, zero
    # offset, descendant sums +0..+2
    _, emits = model.handle(MeanState(), make_event(1, (50, 4), depth=1), stream)
    assert len(emits) == 3
    assert all(e.offset == 0.0 for e in emits)
    assert [e.payload[1] for e in emits] == [4, 5, 6]
    # leaf with descendant sum 0: exactly one next-timestep root
    _, emits = model.handle(MeanState(), make_event(1, (50, 0), depth=2), stream)
    assert len(emits) == 1
    assert emits[0].offset == 1.0
    assert emits[0].payload[1] == 0
    # any other leaf: nothing
    _, emits = model.handle(MeanState(), make_event(1, (50, 3), depth=2), stream)
    assert emits == []


def test_ties_net_event_count_closed_form():
    rng = random.Random(42)
    for _ in range(6):
        n_lps = rng.randint(1, 8)
        end = rng.randint(1, 6)
        chain = rng.randint(1, 4)
        model = EventTiesModel(
            n_lps=n_lps, remote_prob=rng.random(), chain_length=chain,
            end_time=float(end))
        trace = run_sequential(model, OrderingMode.LEX_SEQUENCE, rng.randint(0, 999))
        want = n_lps * end * chain
        assert expected_net_events(model) == want
        assert len(trace.committed) == want


def test_stress_net_event_count_closed_form():
    rng = random.Random(43)
    for height, arity in ((0, 2), (1, 2), (2, 3), (3, 1)):
        n_lps = rng.randint(1, 4)
        end = rng.randint(1, 3)
        model = StressModel(
            n_lps=n_lps, remote_prob=rng.random(), height=height, arity=arity,
            end_time=float(end))
        trace = run_sequential(model, OrderingMode.ADDITIVE, rng.randint(0, 999))
        want = n_lps * end * count_tree_nodes_brute_force(height, arity)
        assert expected_net_events(model) == want
        assert len(trace.committed) == want


def test_phold_population_is_constant():
    # every handled event emits exactly one successor, so net events depend
    # only on how many fit under the horizon, not on the mode
    model = build_model("phold", n_lps=4, end_time=6.0, remote_prob=0.4)
    counts = set()
    for mode in (OrderingMode.NONE, OrderingMode.UNBIASED_SINGLE,
                 OrderingMode.ADDITIVE, OrderingMode.LEX_SEQUENCE):
        trace = run_sequential(model, mode, 7)
        counts.add(len(trace.committed))
    assert len(counts) == 1


def test_build_model_applies_defaults():
    model = build_model("event-ties", n_lps=3)
    assert model.chain_length == 2
    assert model.remote_prob == 0.5
    model = build_model("event-ties-stress", n_lps=3, height=1, arity=4)
    assert expected_net_events(model) == 3 * 10 * 5


def test_emit_defaults():
    e = Emit(2, 0.5)
    assert e.payload is None and e.forced_tiebreak is None


@pytest.mark.parametrize("record,field", ((Emit(2, 0.5), "dest_lp"),
                                          (Emit(2, 0.5), "payload"),
                                          (MeanState(), "mean_val")))
def test_records_reject_attribute_assignment(record, field):
    with pytest.raises(AttributeError):
        setattr(record, field, 1)


def test_equal_records_hash_equal():
    a = Emit(1, 0.0, (3, 4), 7)
    b = Emit(dest_lp=1, offset=0.0, payload=(3, 4), forced_tiebreak=7)
    assert a == b and hash(a) == hash(b)
    assert a != Emit(1, 0.0, (3, 5), 7)
    assert MeanState(2.5) == MeanState(mean_val=2.5)
    assert hash(MeanState(2.5)) == hash(MeanState(mean_val=2.5))
    assert MeanState().fold(5) == MeanState(2.5)


def test_record_fields_and_defaults():
    def params(cls):
        return [(p.name, p.default) for p in inspect.signature(cls).parameters.values()]

    empty = inspect.Parameter.empty
    assert params(Emit) == [("dest_lp", empty), ("offset", empty),
                            ("payload", None), ("forced_tiebreak", None)]
    assert params(MeanState) == [("mean_val", 0.0)]
    assert MeanState().mean_val == 0.0
