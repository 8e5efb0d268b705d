"""Sequential kernel: ordering invariants, published tie-break orders."""

import json
import random

import pytest

from tiewarp.errors import (
    CausalityViolation,
    SequenceCapExceeded,
    ZeroOffsetForbidden,
)
from tiewarp.harness import RunSpec, audit_trace, benchmark, execute
from tiewarp.kernel_seq import run_sequential
from tiewarp.models import build_model
from tiewarp.rngstream import GENERATOR_NAME, GENERATOR_VERSION
from tiewarp.scenarios import (
    SCRIPT_ADDITIVE_ORDER,
    SCRIPT_LEX_ORDER,
    ScriptedModel,
    TiePairModel,
    committed_names,
)
from tiewarp.timebase import OrderingMode, sort_key
from tiewarp.trace import digest_lines, first_divergence, read_trace

DRAW_MODES = (OrderingMode.UNBIASED_SINGLE, OrderingMode.ADDITIVE, OrderingMode.LEX_SEQUENCE)


def test_scripted_additive_order():
    trace = run_sequential(ScriptedModel(), OrderingMode.ADDITIVE, 1)
    assert committed_names(trace) == SCRIPT_ADDITIVE_ORDER


def test_scripted_lex_order():
    trace = run_sequential(ScriptedModel(), OrderingMode.LEX_SEQUENCE, 1)
    assert committed_names(trace) == SCRIPT_LEX_ORDER


def test_scripted_orders_differ_between_modes():
    assert SCRIPT_ADDITIVE_ORDER != SCRIPT_LEX_ORDER  # the whole point


def test_naive_derivation_violates_causality():
    with pytest.raises(CausalityViolation):
        run_sequential(ScriptedModel(), OrderingMode.NAIVE, 1)


def test_naive_violates_on_random_tie_model_too():
    model = build_model("event-ties", n_lps=6, end_time=4.0, chain_length=3)
    with pytest.raises(CausalityViolation):
        run_sequential(model, OrderingMode.NAIVE, 5)


def test_single_draw_mode_rejects_zero_offset_models():
    model = build_model("event-ties", n_lps=4, end_time=3.0, chain_length=2)
    with pytest.raises(ZeroOffsetForbidden):
        run_sequential(model, OrderingMode.UNBIASED_SINGLE, 1)


def test_sequence_cap_stops_runaway_chains():
    # height-3 trees need sequences of length 4
    model = build_model("event-ties-stress", n_lps=2, end_time=2.0,
                        height=3, arity=2)
    with pytest.raises(SequenceCapExceeded):
        run_sequential(model, OrderingMode.LEX_SEQUENCE, 1, seq_cap=3)
    trace = run_sequential(model, OrderingMode.LEX_SEQUENCE, 1, seq_cap=4)
    assert len(trace.committed) == model.expected_net_events()


def test_biased_ruleset_contradicts_zero_offset_causality():
    # the ruleset orders a zero-offset child by its higher serial, which can
    # place it before events its parent already sequenced after
    model = build_model("event-ties", n_lps=6, end_time=4.0, chain_length=3)
    with pytest.raises(CausalityViolation):
        run_sequential(model, OrderingMode.BIASED_RULESET, 3)


def test_same_seed_reproduces_digest_different_seed_does_not():
    model = build_model("phold", n_lps=5, end_time=6.0, remote_prob=0.4)
    a = run_sequential(model, OrderingMode.LEX_SEQUENCE, 11)
    b = run_sequential(model, OrderingMode.LEX_SEQUENCE, 11)
    c = run_sequential(model, OrderingMode.LEX_SEQUENCE, 12)
    assert a.digest() == b.digest()
    assert first_divergence(a.canonical_lines(), b.canonical_lines()) is None
    assert a.digest() != c.digest()
    assert first_divergence(a.canonical_lines(), c.canonical_lines()) is not None


@pytest.mark.parametrize("mode", DRAW_MODES)
def test_commit_keys_strictly_ascend(mode):
    model = build_model("phold", n_lps=6, end_time=8.0, remote_prob=0.5)
    trace = run_sequential(model, mode, 21)
    keys = [sort_key(ce, mode) for ce in trace.committed]
    assert all(a < b for a, b in zip(keys, keys[1:]))
    assert keys[0][0] == 1.0  # seeds arrive at the first timestep


TIE_MODELS = (("event-ties", {"chain_length": 3}),
              ("event-ties-stress", {"height": 3, "arity": 2}))


@pytest.mark.parametrize("name,params", TIE_MODELS, ids=[n for n, _ in TIE_MODELS])
def test_tie_heavy_commit_keys_strictly_ascend(name, params):
    # every heap comparison here falls through an equal timestamp to the key
    model = build_model(name, n_lps=8, end_time=3.0, remote_prob=0.5, **params)
    for mode in (OrderingMode.ADDITIVE, OrderingMode.LEX_SEQUENCE):
        trace = run_sequential(model, mode, 21)
        keys = [sort_key(ce, mode) for ce in trace.committed]
        assert [ce.key for ce in trace.committed] == keys
        assert all(a < b for a, b in zip(keys, keys[1:]))
        assert len({ce.timestamp for ce in trace.committed}) * 10 < len(keys)
    trace = run_sequential(model, OrderingMode.NONE, 21)
    assert audit_trace(trace, "none") == {"events": len(trace.committed),
                                          "violations": []}


def test_commit_indices_are_dense_and_horizon_respected():
    model = build_model("event-ties", n_lps=5, end_time=4.0, chain_length=2)
    trace = run_sequential(model, OrderingMode.ADDITIVE, 9)
    indices = [int(line.split(",")[0]) for line in trace.canonical_lines()
               if not line.startswith("state,")]
    assert indices == list(range(len(trace.committed)))
    assert all(ce.timestamp <= model.end_time for ce in trace.committed)


def test_seed_events_have_no_parent_and_serials_count_sends():
    model = build_model("event-ties", n_lps=4, end_time=3.0, chain_length=2)
    trace = run_sequential(model, OrderingMode.LEX_SEQUENCE, 2)
    seeds = [ce for ce in trace.committed if ce.parent_key is None]
    assert len(seeds) == 4
    assert all(ce.timestamp == 1.0 for ce in seeds)
    # serials are unique per source LP
    seen = set()
    for ce in trace.committed:
        ident = (ce.source_lp, ce.serial)
        assert ident not in seen
        seen.add(ident)


def test_parents_commit_before_children():
    model = build_model("event-ties-stress", n_lps=3, end_time=2.0,
                        height=2, arity=2, remote_prob=0.6)
    trace = run_sequential(model, OrderingMode.LEX_SEQUENCE, 4)
    committed_at = {}
    for ce in trace.committed:
        if ce.parent_key is not None:
            assert ce.parent_key in committed_at, ce
        committed_at[(ce.source_lp, ce.serial)] = ce


def test_benchmark_counts_the_committed_events():
    model = build_model("phold", n_lps=4, end_time=5.0)
    trace = run_sequential(model, OrderingMode.ADDITIVE, 8)
    assert len(trace.committed) > 0
    spec = RunSpec(model="phold", mode="additive", n_lps=4, end_time=5.0, seed=8)
    assert benchmark(spec)["events"] == len(trace.committed)


def test_none_mode_runs_tie_models_without_draws():
    model = build_model("event-ties", n_lps=4, end_time=3.0, chain_length=2)
    trace = run_sequential(model, OrderingMode.NONE, 6)
    assert len(trace.committed) == model.expected_net_events()
    assert all(ce.tiebreak == () for ce in trace.committed)


def test_tie_pair_model_commits_both_lineages():
    model = TiePairModel(depth=2)
    trace = run_sequential(model, OrderingMode.LEX_SEQUENCE, 3)
    # LP0 chain: depths 0,1,2 => 3 events; LP1: the lone rival
    assert len(trace.committed) == 4
    by_lp = {}
    for ce in trace.committed:
        by_lp.setdefault(ce.source_lp, []).append(ce)
    assert len(by_lp[0]) == 3
    assert len(by_lp[1]) == 1


def test_trace_file_round_trip(tmp_path):
    model = build_model("event-ties", n_lps=4, end_time=3.0, chain_length=2)
    trace = run_sequential(model, OrderingMode.LEX_SEQUENCE, 13)
    path = tmp_path / "trail.txt"
    trace.write(path)
    lines = read_trace(path)
    assert lines == list(trace.canonical_lines())
    assert len(lines) == len(trace.committed) + len(trace.final_states)
    assert digest_lines(lines) == trace.digest()


def test_summary_reports_digest_and_finals(tmp_path):
    spec = RunSpec(model="event-ties", mode="additive", n_lps=3, end_time=2.0,
                   chain_length=2, seed=5)
    trace, _ = execute(spec)
    path = tmp_path / "summary.json"
    trace.write_summary(path, spec, {"rollbacks": 0}, trace.digest())
    data = json.loads(path.read_text())
    assert data["schema"] == "tiewarp.summary/2"
    assert data["spec"] == spec.to_dict()
    assert (data["generator"], data["generator_version"]) == (GENERATOR_NAME,
                                                            GENERATOR_VERSION)
    assert data["digest"] == trace.digest()
    assert data["net_events"] == 12
    assert data["metrics"]["rollbacks"] == 0
    assert len(data["final_states"]) == 3


def test_random_configs_all_modes_complete():
    rng = random.Random(77)
    for _ in range(10):
        model = build_model("event-ties", n_lps=rng.randint(1, 6),
                            end_time=float(rng.randint(1, 4)),
                            chain_length=rng.randint(1, 3),
                            remote_prob=rng.random())
        for mode in (OrderingMode.ADDITIVE, OrderingMode.LEX_SEQUENCE):
            trace = run_sequential(model, mode, rng.randint(0, 10_000))
            assert len(trace.committed) == model.expected_net_events()
