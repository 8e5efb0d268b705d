"""Sequential kernel: ordering invariants, published tie-break orders."""

import json
import random
import tracemalloc

import pytest

from tiewarp.errors import (
    CausalityViolation,
    SequenceCapExceeded,
    ZeroOffsetForbidden,
)
from tiewarp import kernel_seq
from tiewarp.cli import write_record
from tiewarp.harness import RunSpec, benchmark, build_kernel, execute, summary
from tiewarp.kernel_seq import build_event, make_lps, run_sequential
from tiewarp.models import Emit, build_model
from tiewarp.rngstream import _LANES, GENERATOR_NAME, GENERATOR_VERSION, draw_at
from tiewarp.timebase import DEFAULT_SEQUENCE_CAP, OrderingMode, sort_key
from tiewarp.trace import Event, first_divergence, read_trace

from scenarios import (
    SCRIPT_ADDITIVE_ORDER,
    SCRIPT_LEX_ORDER,
    ScriptedModel,
    committed_names,
    expected_net_events,
)
from signature_oracle import audit_trace

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
    assert len(trace.committed) == expected_net_events(model)


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
    seeds = [ce for ce in trace.committed if ce.parent_lp is None]
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
        if ce.parent_lp is not None:
            assert (ce.parent_lp, ce.parent_serial) in committed_at, ce
        committed_at[(ce.source_lp, ce.serial)] = ce


# Bytes tracemalloc sees allocated by a sequential phold run (256 LPs, end
# 10, lex, seed 7) and still held when it returns, per committed event: the
# trace keeps every event alive. Each event held its parent's identity in a
# 2-tuple of its own at 410 bytes; as two slots of the Event it is 373.
TRACED_BYTES_PER_EVENT_BOUND = 395


def test_the_committed_record_stays_lean():
    model = build_model("phold", n_lps=256, end_time=10.0)
    kernel = kernel_seq.SequentialKernel(model, OrderingMode.LEX_SEQUENCE, 7)
    tracemalloc.start()
    try:
        trace = kernel.run()
        traced, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(trace.committed) == 2558
    assert traced / len(trace.committed) < TRACED_BYTES_PER_EVENT_BOUND


def test_benchmark_counts_the_committed_events():
    model = build_model("phold", n_lps=4, end_time=5.0)
    trace = run_sequential(model, OrderingMode.ADDITIVE, 8)
    assert len(trace.committed) > 0
    spec = RunSpec(model="phold", mode="additive", n_lps=4, end_time=5.0, seed=8)
    assert benchmark(spec)["events"] == len(trace.committed)


# (RunSpec fields, committed events, peak_pending), which the benchmark
# reports as kernel_seq.peak_pending: the heap's largest size before a pop
PEAK_PENDING = (
    ({"model": "phold", "n_lps": 1024, "end_time": 10.0, "seed": 1}, 10370, 1024),
    ({"model": "phold", "n_lps": 64, "end_time": 5.0, "seed": 7}, 354, 64),
    ({"model": "event-ties", "n_lps": 256, "end_time": 10.0, "chain_length": 2,
      "seed": 1}, 5120, 256),
    ({"model": "event-ties-stress", "n_lps": 64, "end_time": 1.0, "height": 6,
      "arity": 2, "seed": 1}, 8128, 70),
    ({"model": "event-ties-stress", "n_lps": 16, "end_time": 2.0, "height": 3,
      "arity": 4, "seed": 2}, 2720, 25),
    # mode none pops a burst of ties breadth-first, so its heap grows wider
    ({"model": "event-ties", "n_lps": 256, "end_time": 10.0, "chain_length": 2,
      "seed": 1, "mode": "none"}, 5120, 256),
    ({"model": "event-ties-stress", "n_lps": 64, "end_time": 1.0, "height": 6,
      "arity": 2, "seed": 1, "mode": "none"}, 8128, 4096),
    ({"model": "event-ties-stress", "n_lps": 16, "end_time": 2.0, "height": 3,
      "arity": 4, "seed": 2, "mode": "none"}, 2720, 1024),
)


@pytest.mark.parametrize("fields,events,peak", PEAK_PENDING,
                         ids=[f"{f['model']}-{f.get('mode', 'lex')}-{f['n_lps']}"
                              for f, _, _ in PEAK_PENDING])
def test_peak_pending_is_the_largest_heap_before_a_pop(monkeypatch, fields, events, peak):
    sizes = []

    def heappop(heap, pop=kernel_seq.heappop):
        sizes.append(len(heap))
        return pop(heap)

    monkeypatch.setattr(kernel_seq, "heappop", heappop)
    kernel = build_kernel(RunSpec(**fields), optimistic=False)
    assert kernel.peak_pending == 0
    trace = kernel.run()
    assert len(sizes) == len(trace.committed) == events
    assert kernel.peak_pending == max(sizes) == peak


def test_none_mode_runs_tie_models_without_draws():
    model = build_model("event-ties", n_lps=4, end_time=3.0, chain_length=2)
    trace = run_sequential(model, OrderingMode.NONE, 6)
    assert len(trace.committed) == expected_net_events(model)
    assert all(ce.tiebreak == () for ce in trace.committed)


def test_tie_pair_model_commits_both_lineages():
    # the fairness probe's pair at depth 2: each LP runs one chain of
    # depths 0, 1, 2 at t = 1, and its serials are those depths
    model = build_model("event-ties", n_lps=2, chain_length=3, remote_prob=0.0,
                        end_time=1.0)
    trace = run_sequential(model, OrderingMode.LEX_SEQUENCE, 3)
    assert len(trace.committed) == 6
    by_lp = {}
    for ce in trace.committed:
        assert ce.dest_lp == ce.source_lp and ce.timestamp == 1.0
        by_lp.setdefault(ce.source_lp, []).append((ce.serial, ce.zero_offset_depth))
    assert sorted(by_lp[0]) == sorted(by_lp[1]) == [(0, 0), (1, 1), (2, 2)]


def test_trace_file_round_trip(tmp_path):
    model = build_model("event-ties", n_lps=4, end_time=3.0, chain_length=2)
    trace = run_sequential(model, OrderingMode.LEX_SEQUENCE, 13)
    path = tmp_path / "trail.txt"
    trace.write(path)
    lines, digest = read_trace(path)
    assert lines == list(trace.canonical_lines())
    assert len(lines) == len(trace.committed) + len(trace.final_states)
    assert digest == trace.digest()


def test_summary_reports_digest_and_finals(tmp_path):
    spec = RunSpec(model="event-ties", mode="additive", n_lps=3, end_time=2.0,
                   chain_length=2, seed=5)
    trace, _ = execute(spec)
    path = tmp_path / "summary.json"
    write_record(path, summary(spec, trace, {"rollbacks": 0}, trace.digest()))
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
            assert len(trace.committed) == expected_net_events(model)


def build_seed(rt, model, mode=OrderingMode.LEX_SEQUENCE, forced=None):
    """The seed event that ``rt`` builds next; it takes serial ``rt.serial``."""
    return build_event(rt, None, Emit(0, 0.5, None, forced), mode, DEFAULT_SEQUENCE_CAP, model)


def slot_values(ev: Event) -> list:
    # AttributeError names any slot left unset
    return [(name, type(getattr(ev, name)), getattr(ev, name)) for name in Event.__slots__]


@pytest.mark.parametrize("mode", OrderingMode, ids=lambda mode: mode.value)
def test_built_events_fill_every_slot_as_the_constructor_does(mode):
    # build_event fills an empty Event's slots itself; a seed and each child
    # the mode builds must be the record Event(...) makes of the same fields
    model = build_model("event-ties", n_lps=3, end_time=4.0)
    rt = make_lps(model, 7, lp_pe=[0, 2, 1])[1]
    seed = build_event(rt, None, Emit(2, 1.0, 17), mode, DEFAULT_SEQUENCE_CAP, model)
    built = [seed]
    for offset in (1.0, 0.0):
        try:
            built.append(build_event(rt, seed, Emit(0, offset, (offset, "v")), mode,
                                     DEFAULT_SEQUENCE_CAP, model))
        except (CausalityViolation, ZeroOffsetForbidden):
            assert offset == 0.0 and mode in (OrderingMode.UNBIASED_SINGLE,
                                              OrderingMode.BIASED_RULESET, OrderingMode.NAIVE)
    assert len(built) >= 2 and (built[1].parent_lp, built[1].parent_serial) == (1, 0)
    for ev in built:
        values = slot_values(ev)
        assert values == slot_values(Event(**{name: value for name, _, value in values}))
        assert ev.source_pe == 2 and ev.match is None


def test_cached_tiebreaks_follow_every_rewind():
    # a tie-break is draw_at(tiebreak key, serial) whatever serial rollback
    # assigns back, although build_event reads it from a cached block
    model = build_model("phold", n_lps=2, end_time=1.0)
    rt = make_lps(model, 3)[0]

    def check_next():
        serial = rt.serial
        assert build_seed(rt, model).tiebreak == (draw_at(rt.tiebreak_key, serial),)
        assert rt.serial == serial + 1

    for _ in range(3 * _LANES + 5):
        check_next()
    block_start = (rt.serial - 1) // _LANES * _LANES
    rewinds = {
        "into the middle of the cached block": block_start + _LANES // 2,
        "across a block boundary": block_start - 1,
        "far back": 1,
        "forward": rt.serial + 7 * _LANES + 3,
    }
    for serial in rewinds.values():
        rt.serial = serial
        for _ in range(_LANES + 1):
            check_next()
    rng = random.Random(0xCAC4E)
    snapshots = [rt.serial]
    for _ in range(3000):
        action = rng.random()
        if action < 0.6:
            check_next()
        elif action < 0.8:
            snapshots.append(rt.serial)
        else:
            rt.serial = rng.choice(snapshots)
            check_next()


def test_forced_and_drawless_tiebreaks_leave_the_cache_alone():
    model = build_model("phold", n_lps=2, end_time=1.0)
    fresh, rt = make_lps(model, 3)
    build_seed(rt, model)
    cached = (rt.tiebreak_index, rt.tiebreak_block)
    rt.serial = 5 * _LANES
    assert build_seed(rt, model, forced=7).tiebreak == (7,)
    for mode in (OrderingMode.NONE, OrderingMode.BIASED_RULESET):
        assert build_seed(rt, model, mode).tiebreak == ()
        assert build_seed(fresh, model, mode).tiebreak == ()
    assert (rt.tiebreak_index, rt.tiebreak_block) == cached
    assert cached[1] is rt.tiebreak_block
    assert (fresh.tiebreak_index, fresh.tiebreak_block) == (None, None)
