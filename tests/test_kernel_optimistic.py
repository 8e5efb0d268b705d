"""Optimistic kernel: bit-exact equivalence with the sequential reference."""

import gc
import hashlib
import random
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tiewarp import kernel_optimistic, kernel_seq
from tiewarp.errors import (CausalityViolation, ConfigError, SequenceCapExceeded,
                            UnmatchedAntiMessage, ZeroOffsetForbidden)
from tiewarp.harness import outcome
from tiewarp.kernel_optimistic import (DEFAULT_GVT_INTERVAL, DEFAULT_MAX_DELAY,
                                       ChaosConfig, OptimisticKernel, PeRuntime)
from tiewarp.kernel_seq import SequentialKernel, run_sequential
from tiewarp.models import Emit, EventTiesModel, PholdModel, build_model
from tiewarp.rngstream import draw_at, lp_keys, mix64
from tiewarp.timebase import DEFAULT_SEQUENCE_CAP, OrderingMode, format_signature
from tiewarp.trace import Event, first_divergence

from scenarios import SCRIPT_LEX_ORDER, ScriptedModel, committed_names, expected_net_events
from signature_oracle import audit_trace

# tie-heavy configuration that provokes hundreds of rollbacks (measured:
# >50 rollbacks and >60 annihilations at 4 workers, chaos seed 0)
TIES = dict(n_lps=8, end_time=5.0, chain_length=3, remote_prob=0.7)


def run_optimistic(model, mode, global_seed, n_workers, chaos_seed=0,
                   max_delay=DEFAULT_MAX_DELAY, gvt_interval=DEFAULT_GVT_INTERVAL,
                   seq_cap=DEFAULT_SEQUENCE_CAP):
    kernel = OptimisticKernel(model, mode, global_seed, n_workers,
                              chaos=ChaosConfig(chaos_seed, max_delay),
                              gvt_interval=gvt_interval, seq_cap=seq_cap)
    return kernel.run()


def run_pair(model, mode, seed, workers, chaos_seed=0, **kw):
    seq = run_sequential(model, mode, seed)
    opt = run_optimistic(model, mode, seed, workers, chaos_seed=chaos_seed, **kw)
    return seq, opt


def test_single_worker_matches_sequential():
    model = build_model("event-ties", **TIES)
    seq, opt = run_pair(model, OrderingMode.LEX_SEQUENCE, 1, workers=1)
    assert opt.digest() == seq.digest()


def test_single_worker_draws_no_chaos():
    # one PE leaves the scheduler nothing to choose and sends nothing remote
    model = build_model("phold", n_lps=16, end_time=6.0, remote_prob=0.5)
    kernel = OptimisticKernel(model, OrderingMode.LEX_SEQUENCE, 1, 1,
                              chaos=ChaosConfig(3, 4))
    trace = kernel.run()
    assert kernel.chaos.cursor == 0
    assert trace.digest() == run_sequential(model, OrderingMode.LEX_SEQUENCE, 1).digest()


def test_rollbacks_occur_and_digest_still_matches():
    model = build_model("event-ties", **TIES)
    kernel = OptimisticKernel(model, OrderingMode.LEX_SEQUENCE, 1, 4,
                              chaos=ChaosConfig(0, 4))
    opt = kernel.run()
    metrics = kernel.metrics()
    assert metrics["rollbacks"] > 10  # the run really was optimistic
    assert metrics["annihilations"] > 10
    assert metrics["antis_sent"] == metrics["annihilations"]
    seq = run_sequential(model, OrderingMode.LEX_SEQUENCE, 1)
    assert opt.digest() == seq.digest()
    assert first_divergence(seq.canonical_lines(), opt.canonical_lines()) is None


def test_metrics_accounting_is_consistent():
    model = build_model("event-ties", **TIES)
    kernel = OptimisticKernel(model, OrderingMode.ADDITIVE, 3, 4,
                              chaos=ChaosConfig(1, 4))
    trace = kernel.run()
    m = kernel.metrics()
    assert m["processed"] - m["rolled_back"] == len(trace.committed)
    assert m["rollbacks"] >= m["stragglers"]
    assert 0.0 < m["efficiency"] <= 1.0
    assert m["workers"] == 4
    assert len(trace.committed) == expected_net_events(model)


def test_scripted_order_survives_parallel_execution():
    for workers in (2, 3):
        trace = run_optimistic(ScriptedModel(), OrderingMode.LEX_SEQUENCE, 1,
                               workers, chaos_seed=2)
        assert committed_names(trace) == SCRIPT_LEX_ORDER


@pytest.mark.parametrize("mode", (OrderingMode.ADDITIVE, OrderingMode.LEX_SEQUENCE))
def test_equivalence_fuzz(mode):
    rng = random.Random(hash(mode.value) & 0xFFFFFF)
    for _ in range(12):
        name = rng.choice(("phold", "event-ties", "event-ties-stress"))
        params = {"n_lps": rng.randint(2, 8), "remote_prob": rng.random()}
        if name == "phold":
            params["end_time"] = 2.0 + 4.0 * rng.random()
        elif name == "event-ties":
            params.update(end_time=float(rng.randint(1, 4)),
                          chain_length=rng.randint(1, 3),
                          coupled=rng.random() < 0.3)
        else:
            params.update(end_time=float(rng.randint(1, 3)),
                          height=rng.randint(0, 2), arity=rng.randint(1, 3))
        model = build_model(name, **params)
        seed = rng.randint(0, 99_999)
        ref = run_sequential(model, mode, seed).digest()
        workers = rng.choice((2, 3, 4))
        chaos = rng.randint(0, 9)
        opt = run_optimistic(model, mode, seed, workers, chaos_seed=chaos,
                             max_delay=rng.randint(0, 6))
        assert opt.digest() == ref, (name, params, seed, workers, chaos)


def test_unbiased_single_on_phold_matches_sequential():
    model = build_model("phold", n_lps=6, end_time=8.0, remote_prob=0.5)
    seq, opt = run_pair(model, OrderingMode.UNBIASED_SINGLE, 9, workers=3,
                        chaos_seed=4)
    assert opt.digest() == seq.digest()


def test_chaos_schedule_does_not_change_commits():
    model = build_model("event-ties", **TIES)
    ref = run_sequential(model, OrderingMode.LEX_SEQUENCE, 2).digest()
    for chaos in range(6):
        opt = run_optimistic(model, OrderingMode.LEX_SEQUENCE, 2, 4,
                             chaos_seed=chaos)
        assert opt.digest() == ref, f"chaos seed {chaos}"


def test_transport_delay_does_not_change_commits():
    model = build_model("event-ties-stress", n_lps=6, end_time=3.0,
                        height=2, arity=2, remote_prob=0.6)
    ref = run_sequential(model, OrderingMode.ADDITIVE, 5).digest()
    for delay in (0, 2, 8):
        opt = run_optimistic(model, OrderingMode.ADDITIVE, 5, 3,
                             chaos_seed=1, max_delay=delay)
        assert opt.digest() == ref, f"max_delay {delay}"


def test_gvt_interval_does_not_change_commits():
    model = build_model("event-ties", **TIES)
    ref = run_sequential(model, OrderingMode.LEX_SEQUENCE, 7).digest()
    for interval in (1, 16, 100_000):
        opt = run_optimistic(model, OrderingMode.LEX_SEQUENCE, 7, 4,
                             chaos_seed=3, gvt_interval=interval)
        assert opt.digest() == ref, f"gvt_interval {interval}"


def test_same_knobs_reproduce_run_exactly():
    model = build_model("event-ties", **TIES)
    a = OptimisticKernel(model, OrderingMode.LEX_SEQUENCE, 4, 4,
                         chaos=ChaosConfig(5, 4))
    b = OptimisticKernel(model, OrderingMode.LEX_SEQUENCE, 4, 4,
                         chaos=ChaosConfig(5, 4))
    ta, tb = a.run(), b.run()
    assert ta.digest() == tb.digest()
    assert a.metrics() == b.metrics()  # the whole run replays, not just commits


# (model, params, mode, seed, workers, chaos seed, max delay): one cell per
# scheduler branch; the test asserts that each branch is taken
SCHEDULE_GRID = (
    ("event-ties", dict(n_lps=32, end_time=4.0, chain_length=2), "lex", 1, 4, 0, 4),
    ("phold", dict(n_lps=6, end_time=6.0, remote_prob=0.8), "lex", 2, 3, 1, 0),
    ("phold", dict(n_lps=2, end_time=8.0, remote_prob=1.0), "additive", 3, 2, 2, 64),
    ("event-ties", dict(n_lps=3, end_time=3.0, chain_length=2), "lex", 4, 8, 3, 4),
    ("event-ties-stress", dict(n_lps=6, end_time=2.0, height=2, arity=2,
                               remote_prob=0.6), "lex", 5, 1, 4, 64),
    ("event-ties", dict(n_lps=8, end_time=3.0, chain_length=3, remote_prob=0.7),
     "none", 6, 3, 5, 64),
)


def test_scheduler_choices_are_frozen(monkeypatch):
    # The metrics() pins see the schedule only through its counts; this pins
    # the schedule itself: every step's (now, PE), every send's due step, and
    # how many chaos draws each run took.
    original_step, original_send = PeRuntime.step, kernel_optimistic.Transport.send
    records, branches = [], Counter()
    last_now = None

    def step(pe, now):
        nonlocal last_now
        busy = sum(1 for other in kernel.pes if other.pending)
        branches["all busy" if busy == len(kernel.pes) else "some idle"] += 1
        branches["idle with a due inbox"] += not pe.pending
        branches["next_due jump"] += last_now is not None and now > last_now + 1
        last_now = now
        records.append(("step", now, pe.pe_id))
        return original_step(pe, now)

    def send(transport, dest_pe, ev, now, anti=False):
        seq = transport.total_sent
        original_send(transport, dest_pe, ev, now, anti)
        due = next(entry[0] for entry in transport.inboxes[dest_pe] if entry[1] == seq)
        records.append(("send", now, dest_pe, due, anti))

    monkeypatch.setattr(PeRuntime, "step", step)
    monkeypatch.setattr(kernel_optimistic.Transport, "send", send)
    for name, params, mode, seed, workers, chaos, delay in SCHEDULE_GRID:
        last_now = None
        kernel = OptimisticKernel(build_model(name, **params), OrderingMode.from_name(mode),
                                  seed, workers, chaos=ChaosConfig(chaos, delay))
        kernel.run()
        records.append(("draws", kernel.chaos.cursor))
    assert min(branches.values()) > 0 and len(branches) == 4, branches
    digest = hashlib.sha256(repr(records).encode()).hexdigest()
    assert digest == "38bea8e34298b3b9dd18ee08e53c4683ad6dac52b2622b74add1ccf0e52ceffd"


def test_none_mode_is_schedule_dependent_on_ties():
    model = build_model("event-ties", **TIES)
    digests = {run_optimistic(model, OrderingMode.NONE, 1, 4,
                              chaos_seed=chaos).digest()
               for chaos in range(5)}
    assert len(digests) > 1, "tie commits should depend on the schedule"


def test_none_mode_counts_are_schedule_independent():
    model = build_model("event-ties", n_lps=6, end_time=4.0, chain_length=2)
    counts = {len(run_optimistic(model, OrderingMode.NONE, 1, 3,
                                 chaos_seed=chaos).committed)
              for chaos in range(4)}
    assert counts == {expected_net_events(model)}


def test_naive_derivation_raises_the_sequential_causality_violation():
    # build_event refuses the child in both kernels; the optimistic kernel
    # raises it when the parent commits
    model = build_model("event-ties", n_lps=6, end_time=4.0, chain_length=3)
    with pytest.raises(CausalityViolation) as seq:
        run_sequential(model, OrderingMode.NAIVE, 5)
    with pytest.raises(CausalityViolation) as opt:
        run_optimistic(model, OrderingMode.NAIVE, 5, 4)
    assert str(opt.value) == str(seq.value)
    assert "sorts before the already-processed frontier" in str(seq.value)


class GvtCheckingKernel(OptimisticKernel):
    """Checks each GVT round against a brute-force minimum over every key."""

    rounds = 0
    stashed_rounds = 0

    def _compute_gvt(self):
        gvt = super()._compute_gvt()
        keys = [ev.key for box in self.transport.inboxes for _, _, ev, _ in box]
        for pe in self.pes:
            keys += [entry[0] for entry in pe.pending]
            keys += [key for stashed in pe.stash.values() for key in stashed]
            self.stashed_rounds += bool(pe.stash)
        assert gvt == (min(keys) if keys else None)
        self.rounds += 1
        return gvt


def test_heap_top_gvt_equals_the_brute_force_minimum():
    model = build_model("event-ties", **TIES)
    reference = run_sequential(model, OrderingMode.LEX_SEQUENCE, 1).digest()
    stashed_rounds = 0
    for chaos_seed in range(4):
        kernel = GvtCheckingKernel(model, OrderingMode.LEX_SEQUENCE, 1, 4,
                                   chaos=ChaosConfig(chaos_seed, 8), gvt_interval=16)
        assert kernel.run().digest() == reference
        assert kernel.rounds > 10 and kernel.metrics()["rollbacks"] > 10
        stashed_rounds += kernel.stashed_rounds
    # measured: 3 rounds over these seeds met a stashed anti-message
    assert stashed_rounds > 0


class MatchCheckingKernel(OptimisticKernel):
    """Checks each PE's annihilation counts against its pending heap at
    every GVT round."""

    rounds = 0
    condemned_by_id = 0

    def _compute_gvt(self):
        for pe in self.pes:
            recount = Counter(ev.match for _, _, ev in pe.pending)
            assert pe.pending_counts == recount
            # every kill mark is backed by as many copies in the heap
            assert all(0 < n <= recount[m] for m, n in pe.kill_marks.items())
            # an identity match is the id of the very object the heap holds
            by_id = [ev for _, _, ev in pe.pending if type(ev.match) is int]
            assert all(ev.match == id(ev) for ev in by_id)
            self.condemned_by_id += sum(ev.match in pe.kill_marks for ev in by_id)
        self.rounds += 1
        return super()._compute_gvt()


@pytest.mark.parametrize("mode", (OrderingMode.LEX_SEQUENCE, OrderingMode.NONE))
@pytest.mark.parametrize("workers", (2, 8))
def test_kill_marks_are_backed_by_pending_copies(mode, workers):
    # measured: 43-1,407 rollbacks and 23-1,718 condemned copies matched by
    # identity, over 39-181 rounds
    model = build_model("event-ties", n_lps=16, end_time=8.0, chain_length=4,
                        remote_prob=0.9)
    kernel = MatchCheckingKernel(model, mode, 1, workers,
                                 chaos=ChaosConfig(0, 32), gvt_interval=16)
    trace = kernel.run()
    assert kernel.metrics()["rollbacks"] > 10 and kernel.rounds > 10
    assert kernel.condemned_by_id > 0
    assert len(trace.committed) == expected_net_events(model)
    if mode is OrderingMode.LEX_SEQUENCE:
        assert trace.digest() == run_sequential(model, mode, 1).digest()


class StaleStashKernel(OptimisticKernel):
    """Starts with an anti-message stashed on PE 0 whose twin never existed,
    keyed below every event of the run."""

    def __init__(self, *args, **kw):
        super().__init__(*args, **kw)
        self.pes[0].stash[("stale",)] = [(0.0, (0,), -1, -1)]


def test_stale_stashed_anti_message_raises_at_the_first_gvt_round():
    # GVT reads pending and in-flight keys only, so the stale key is below
    # the first round's GVT and that round raises
    model = build_model("event-ties", n_lps=16, end_time=4.0, chain_length=3)
    kernel = StaleStashKernel(model, OrderingMode.LEX_SEQUENCE, 1, 4,
                              gvt_interval=16)
    with pytest.raises(UnmatchedAntiMessage):
        kernel.run()
    assert kernel.gvt_rounds == 1 and kernel.global_processed == 16


class GhostKillMarkKernel(OptimisticKernel):
    """Starts with a kill mark on PE 0 for a match no event of the run has."""

    def __init__(self, *args, **kw):
        super().__init__(*args, **kw)
        self.pes[0].kill_marks[("ghost",)] = 1


def test_a_kill_mark_left_at_quiescence_raises():
    # no event ever carries the ghost match, so the mark survives every pop,
    # every commit and the final round, and only the quiescence check sees it
    model = build_model("event-ties", n_lps=16, end_time=4.0, chain_length=3)
    kernel = GhostKillMarkKernel(model, OrderingMode.LEX_SEQUENCE, 1, 4,
                                 gvt_interval=16)
    with pytest.raises(UnmatchedAntiMessage) as info:
        kernel.run()
    assert str(info.value) == "PE 0 holds kill marks with no matching events"
    assert all(not pe.pending for pe in kernel.pes) and not any(kernel.transport.inboxes)


class LateCommitKernel(OptimisticKernel):
    """Starts as if it had committed an event keyed above every event of the
    run."""

    def __init__(self, *args, **kw):
        super().__init__(*args, **kw)
        self._last_commit_key = (float("inf"),)


def test_a_commit_below_the_last_commit_key_raises():
    # the first event of the first round sorts below the planted key
    model = build_model("event-ties", n_lps=16, end_time=4.0, chain_length=3)
    first = run_sequential(model, OrderingMode.LEX_SEQUENCE, 1).committed[0]
    kernel = LateCommitKernel(model, OrderingMode.LEX_SEQUENCE, 1, 4, gvt_interval=16)
    with pytest.raises(CausalityViolation) as info:
        kernel.run()
    assert str(info.value) == f"commit order regression at {format_signature(first)}"
    assert kernel.gvt_rounds == 1


def test_undoing_an_entry_whose_local_child_vanished_raises():
    # one PE keeps every child local; the child then leaves the heap with no
    # kill mark, so it is neither pending nor processed when its parent is undone
    model = build_model("event-ties", n_lps=2, end_time=3.0, chain_length=2)
    kernel = OptimisticKernel(model, OrderingMode.LEX_SEQUENCE, 1, 1)
    kernel._seed()
    pe = kernel.pes[0]
    assert pe.step(0)
    [hist] = [hist for hist in pe.histories.values() if hist]
    entry = hist[-1]
    child = entry.children[0]
    assert pe.lp_pe[child.dest_lp] == pe.pe_id
    pe.pending.clear()
    pe.pending_counts.clear()
    with pytest.raises(UnmatchedAntiMessage) as info:
        pe._undo(hist.pop(), 1)
    assert str(info.value) == f"local child {child!r} vanished before its parent's rollback"


class Clockwork:
    """Three LPs on fixed timestamps, for steering a rollback by hand.

    LP 0 ticks at 1, 2, 3 and 4, and LP 2 at 1.5, 2.5 and 3.5; each tick
    schedules its LP's next one. With ``poke``, each LP 0 tick also sends LP 2
    a poke a quarter later. LP 1 ticks once, at 2.1, and sends LP 0 a late
    event at 2.2. An LP's state is the tuple of payloads it handled.
    """

    name = "clockwork"
    n_lps = 3
    end_time = 4.0

    def __init__(self, poke: bool):
        self.poke = poke

    def initial_state(self, lp_id):
        return ()

    def seed_events(self, lp_id, stream):
        return [Emit(lp_id, (1.0, 2.1, 1.5)[lp_id], "tick")]

    def handle(self, state, event, stream):
        lp, emits = event.dest_lp, []
        if event.payload == "tick":
            emits.append(Emit(0, 0.1, "late") if lp == 1 else Emit(lp, 1.0, "tick"))
            if lp == 0 and self.poke:
                emits.append(Emit(2, 0.25, "poke"))
        return state + (event.payload,), emits

    def final_value(self, state):
        return state


def lp_snapshot(pe, lp_id):
    rt = pe.lps[lp_id]
    return (list(pe.histories[lp_id]), rt.state, rt.model_stream.cursor, rt.serial)


def timestamps(entries):
    return [entry.event.timestamp for entry in entries]


def run_with_late_straggler(poke: bool):
    """LPs 0 and 2 share PE 0, which runs through 3.5 before PE 1 sends LP 0
    its event at 2.2. Returns the kernel, LP 2's snapshots before and after
    the straggler is handled, and the timestamps of the pending copies the
    rollback condemned."""
    model = Clockwork(poke)
    kernel = OptimisticKernel(model, OrderingMode.LEX_SEQUENCE, 1, 2,
                              chaos=ChaosConfig(0, 0))
    kernel._seed()
    pe0, pe1 = kernel.pes
    now = 0
    while pe0.pending[0][2].timestamp <= 3.5:
        pe0.step(now)
        now += 1
    pe1.step(now)  # sends "late", due at now + 1
    before = lp_snapshot(pe0, 2)
    pe0.step(now + 1)
    after = lp_snapshot(pe0, 2)
    condemned = sorted(ev.timestamp for _, _, ev in pe0.pending
                       if ev.match in pe0.kill_marks)
    assert pe0.stragglers == 1 and timestamps(pe0.histories[0]) == [1.0, 2.0, 2.2]
    trace = kernel._drive()
    assert trace.digest() == run_sequential(model, OrderingMode.LEX_SEQUENCE, 1).digest()
    return kernel, before, after, condemned


def test_straggler_leaves_other_lps_untouched():
    kernel, before, after, condemned = run_with_late_straggler(poke=False)
    # only LP 0's tick at 3 was undone; LP 2's history, state and stream
    # cursors are the very objects and values they were
    assert timestamps(before[0]) == [1.5, 2.5, 3.5]
    assert all(a is b for a, b in zip(after[0], before[0]))
    assert after[1:] == before[1:] and len(after[0]) == 3
    assert kernel.metrics()["rolled_back"] == 1
    assert condemned == [4.0]  # the undone tick's successor


def test_undone_local_child_is_rolled_back_out_of_its_lp():
    # LP 0's undone tick at 3 had poked LP 2 at 3.25, which LP 2 had already
    # processed: LP 2 is rolled back through the poke (and its tick at 3.5
    # above it), the re-enqueued poke is condemned, LP 2's earlier work stays
    kernel, before, after, condemned = run_with_late_straggler(poke=True)
    assert timestamps(before[0]) == [1.25, 1.5, 2.25, 2.5, 3.25, 3.5]
    assert all(a is b for a, b in zip(after[0], before[0][:4]))
    assert len(after[0]) == 4 and after[1] == before[1][:4]
    assert kernel.metrics()["rolled_back"] == 3
    assert condemned == [3.25, 4.0]


def test_straggler_rollback_never_condemns_the_straggler(monkeypatch):
    # A straggler's rollback undoes only keys above the straggler's, and an
    # undone entry's cascade cancels only its descendants, keyed at or above
    # it; so every event the rollback cancels is keyed above the straggler,
    # which is processed in hand right after. The first case is a mode-none
    # run whose cascade reached the straggler when rollback also undid ties.
    original_past, original_cancel = PeRuntime.rollback_past, PeRuntime._cancel
    cancelled = None
    rollbacks = cascades = 0

    def past(pe, lp_id, boundary_key, now):
        nonlocal cancelled, rollbacks, cascades
        cancelled = []
        original_past(pe, lp_id, boundary_key, now)
        assert all(key > boundary_key for key in cancelled)
        rollbacks += 1
        cascades += bool(cancelled)
        cancelled = None

    def cancel(pe, ev, *args, **kw):
        if cancelled is not None:
            cancelled.append(ev.key)
        return original_cancel(pe, ev, *args, **kw)

    monkeypatch.setattr(PeRuntime, "rollback_past", past)
    monkeypatch.setattr(PeRuntime, "_cancel", cancel)
    rng = random.Random(16)
    cases = [(OrderingMode.NONE, 8, 4, 0.7, 2, 6, 0, 6)]
    for _ in range(120):
        cases.append((rng.choice((OrderingMode.NONE, OrderingMode.LEX_SEQUENCE,
                                  OrderingMode.ADDITIVE)),
                      rng.randint(4, 16), rng.randint(2, 6), rng.choice((0.5, 0.9)),
                      rng.randrange(100), rng.randint(2, 8), rng.randrange(100),
                      rng.choice((4, 8, 32))))
    for mode, n_lps, chain, remote_prob, seed, workers, chaos, delay in cases:
        model = build_model("event-ties", n_lps=n_lps, end_time=4.0,
                            chain_length=chain, remote_prob=remote_prob)
        trace = run_optimistic(model, mode, seed, workers, chaos_seed=chaos,
                               max_delay=delay)
        assert len(trace.committed) == expected_net_events(model)
    # measured: 3,846 straggler rollbacks, 1,387 of them cascading
    assert rollbacks > 3000 and cascades > 1000


def test_thrashing_lex_run_commits_the_sequential_order(monkeypatch):
    # A run that thrashes (efficiency 0.0018, under 1 s): one PE rolls
    # back more than 64 times for the same event, as a straggler or as an
    # anti-message. Strict rollback needs no bound on that count: the run
    # ends, with the sequential outcome.
    original_past, original_through = PeRuntime.rollback_past, PeRuntime.rollback_through
    causes = Counter()

    def past(pe, lp_id, boundary_key, now):
        causes[pe.pe_id, boundary_key] += 1
        original_past(pe, lp_id, boundary_key, now)

    def through(pe, ev, now, anti=False):
        done = original_through(pe, ev, now, anti)
        if done and anti:
            causes[pe.pe_id, ev.key] += 1
        return done

    monkeypatch.setattr(PeRuntime, "rollback_past", past)
    monkeypatch.setattr(PeRuntime, "rollback_through", through)
    model = build_model("event-ties", n_lps=2, end_time=2.0, chain_length=12,
                        remote_prob=0.9)
    lex = OrderingMode.LEX_SEQUENCE
    kernel = OptimisticKernel(model, lex, 663, 2, chaos=ChaosConfig(874, 400))
    assert outcome(kernel) == outcome(SequentialKernel(model, lex, 663))
    assert max(causes.values()) > 64


def test_per_lp_rollback_keeps_efficiency_high():
    # tie-heavy run where per-PE rollback threw away about half the work
    # (efficiency 0.45-0.53); per-LP rollback keeps 0.87-0.91 of it
    model = build_model("event-ties", n_lps=64, chain_length=2, end_time=4.0)
    ref = run_sequential(model, OrderingMode.LEX_SEQUENCE, 1).digest()
    for chaos in range(4):
        kernel = OptimisticKernel(model, OrderingMode.LEX_SEQUENCE, 1, 8,
                                  chaos=ChaosConfig(chaos))
        assert kernel.run().digest() == ref, chaos
        assert kernel.metrics()["efficiency"] >= 0.8, chaos


def test_audit_passes_on_optimistic_traces():
    # mode none's keys are bare timestamps: its commits must still put each
    # zero-offset parent before its children
    model = build_model("event-ties", **TIES)
    for mode, workers in ((OrderingMode.ADDITIVE, 4), (OrderingMode.LEX_SEQUENCE, 4),
                          (OrderingMode.NONE, 2), (OrderingMode.NONE, 6)):
        trace = run_optimistic(model, mode, 6, workers, chaos_seed=2)
        report = audit_trace(trace, mode.value)
        assert report["violations"] == []
        assert report["events"] == expected_net_events(model)


def test_biased_ruleset_is_worker_count_dependent():
    # all PHOLD seeds tie at the first timestep, so the ruleset order (which
    # sorts by PE id first) depends on the partition
    model = build_model("phold", n_lps=8, end_time=4.0, remote_prob=0.3)
    per_workers = []
    for workers in (2, 4):
        digests = {run_optimistic(model, OrderingMode.BIASED_RULESET, 1,
                                  workers, chaos_seed=chaos).digest()
                   for chaos in range(3)}
        assert len(digests) == 1  # deterministic for a fixed partition
        per_workers.append(digests.pop())
    assert per_workers[0] != per_workers[1]


def test_knob_validation():
    model = build_model("phold", n_lps=2, end_time=2.0)
    with pytest.raises(ConfigError):
        OptimisticKernel(model, OrderingMode.LEX_SEQUENCE, 1, 0)
    with pytest.raises(ConfigError):
        OptimisticKernel(model, OrderingMode.LEX_SEQUENCE, 1, 2, gvt_interval=0)
    with pytest.raises(ConfigError):
        OptimisticKernel(model, OrderingMode.LEX_SEQUENCE, 1, 2,
                         chaos=ChaosConfig(0, -1))


LEX = OrderingMode.LEX_SEQUENCE
# each integer argument of the kernels' Python API, given a value
KERNEL_COUNTS = {
    "n_workers": lambda model, v: OptimisticKernel(model, LEX, 1, v),
    "gvt_interval": lambda model, v: OptimisticKernel(model, LEX, 1, 2, gvt_interval=v),
    "max_delay": lambda model, v: OptimisticKernel(model, LEX, 1, 2,
                                                   chaos=ChaosConfig(0, v)),
    "optimistic seq_cap": lambda model, v: OptimisticKernel(model, LEX, 1, 2, seq_cap=v),
    "sequential seq_cap": lambda model, v: SequentialKernel(model, LEX, 1, seq_cap=v),
}


@pytest.mark.parametrize("value", (2.5, 2.0, True, "2"))
@pytest.mark.parametrize("argument", sorted(KERNEL_COUNTS))
def test_kernels_refuse_non_integer_counts(argument, value):
    # as RunSpec does: a fraction, a float and a bool are not counts
    model = build_model("phold", n_lps=2, end_time=2.0)
    with pytest.raises(ConfigError, match=re.escape(f"must be an integer, got {value!r}")):
        KERNEL_COUNTS[argument](model, value)


# each seed of the kernels' Python API, given a value
KERNEL_SEEDS = {
    "sequential global_seed": lambda model, v: SequentialKernel(model, LEX, v),
    "optimistic global_seed": lambda model, v: OptimisticKernel(model, LEX, v, 2),
    "chaos_seed": lambda model, v: OptimisticKernel(model, LEX, 1, 2,
                                                    chaos=ChaosConfig(v)),
}


@pytest.mark.parametrize("value", (2.5, True, "2", -1, 2 ** 64))
@pytest.mark.parametrize("argument", sorted(KERNEL_SEEDS))
def test_kernels_refuse_seeds_outside_64_bits(argument, value):
    # a seed is a 64-bit word: a bool or a fraction is not one, and -1 or
    # 2**64 would alias the seed it equals modulo 2**64
    model = build_model("phold", n_lps=2, end_time=2.0)
    with pytest.raises(ConfigError, match=argument.split()[-1]):
        KERNEL_SEEDS[argument](model, value)
    KERNEL_SEEDS[argument](model, 2 ** 64 - 1)


def test_more_workers_than_lps():
    model = build_model("event-ties", n_lps=3, end_time=3.0, chain_length=2)
    seq, opt = run_pair(model, OrderingMode.LEX_SEQUENCE, 8, workers=8,
                        chaos_seed=1)
    assert opt.digest() == seq.digest()


def test_coupled_routing_still_bit_exact():
    # state-dependent routing propagates any ordering mistake into delivery
    # targets, so this is the most sensitive equivalence check
    model = build_model("event-ties", n_lps=7, end_time=5.0, chain_length=2,
                        remote_prob=0.9, coupled=True)
    ref = run_sequential(model, OrderingMode.LEX_SEQUENCE, 3).digest()
    for workers, chaos in ((2, 0), (4, 1), (5, 7)):
        opt = run_optimistic(model, OrderingMode.LEX_SEQUENCE, 3, workers,
                             chaos_seed=chaos)
        assert opt.digest() == ref


class ListPayloadTies(EventTiesModel):
    """event-ties whose payloads are one-element lists, which cannot be hashed."""

    def seed_events(self, lp_id, stream):
        return [Emit(lp_id, 1.0, [stream.randint(0, 100)])]

    def handle(self, state, event, stream):
        emit = Emit(event.dest_lp, 1.0, [stream.randint(0, 100)])
        return state.fold(event.payload[0]), [emit]


class ListSeedPhold(PholdModel):
    """phold whose seed events carry a one-element list, which cannot be hashed."""

    def seed_events(self, lp_id, stream):
        return [Emit(lp_id, 1.0, [lp_id])]


def test_seed_time_errors_are_run_outcomes_in_both_kernels():
    # both kernels build their seed events in run(), so a seed the model
    # gets wrong is the run's error, not the optimistic constructor's
    model = ListSeedPhold(n_lps=4, end_time=3.0)
    seq = outcome(SequentialKernel(model, OrderingMode.LEX_SEQUENCE, 1))
    opt = outcome(OptimisticKernel(model, OrderingMode.LEX_SEQUENCE, 1, 2))
    assert opt == seq
    assert seq["error"].startswith("ConfigError: LP 0 emitted an unhashable payload")


class SeedThenChild:
    """One LP whose seed event at t = 1 schedules one child ``offset`` later."""

    name = "seed-then-child"
    n_lps = 1
    end_time = 4.0

    def __init__(self, offset):
        self.offset = offset

    def initial_state(self, lp_id):
        return 0

    def seed_events(self, lp_id, stream):
        return [Emit(0, 1.0, "seed")]

    def handle(self, state, event, stream):
        emits = [Emit(0, self.offset, "child")] if event.payload == "seed" else []
        return state + 1, emits

    def final_value(self, state):
        return state


@pytest.mark.parametrize("mode", list(OrderingMode))
def test_nan_offsets_raise_in_both_kernels(mode):
    # a NaN offset is neither negative nor positive; it is refused like a
    # negative one, rather than read as zero or committed at a NaN time
    seq = outcome(SequentialKernel(SeedThenChild(float("nan")), mode, 1))
    opt = outcome(OptimisticKernel(SeedThenChild(float("nan")), mode, 1, 2))
    assert opt == seq
    assert seq["error"].startswith("ConfigError: LP 0 emitted an event at offset nan; ")


def test_an_offset_that_rounding_absorbs_is_simultaneous():
    # 1.0 + 1e-20 == 1.0: the child shares its parent's timestamp, so it
    # extends the parent's tie-break at depth 1, as a zero-offset child does,
    # and cannot sort before it
    for seed in range(20):
        parent, child = run_sequential(SeedThenChild(1e-20),
                                       OrderingMode.LEX_SEQUENCE, seed).committed
        assert child.timestamp == parent.timestamp == 1.0
        assert child.tiebreak[:-1] == parent.tiebreak and len(child.tiebreak) == 2
        assert child.zero_offset_depth == 1
        with pytest.raises(ZeroOffsetForbidden):
            run_sequential(SeedThenChild(1e-20), OrderingMode.UNBIASED_SINGLE, seed)


class ZeroTimeSeeds:
    """Two LPs, each seeding one event at t = 0."""

    name = "zero-time-seeds"
    n_lps = 2
    end_time = 1.0

    def initial_state(self, lp_id):
        return 0

    def seed_events(self, lp_id, stream):
        return [Emit(lp_id, 0.0, lp_id)]

    def handle(self, state, event, stream):
        return state + 1, []

    def final_value(self, state):
        return state


@pytest.mark.parametrize("mode", list(OrderingMode))
def test_seeds_at_time_zero_commit_in_both_kernels(mode):
    # a seed has no parent to be simultaneous with: it starts a fresh
    # signature at its offset, even a zero one
    for trace in (run_sequential(ZeroTimeSeeds(), mode, 1),
                  run_optimistic(ZeroTimeSeeds(), mode, 1, 2)):
        assert [ev.timestamp for ev in trace.committed] == [0.0, 0.0]
        assert sorted(ev.source_lp for ev in trace.committed) == [0, 1]
        assert all(ev.zero_offset_depth == 0 for ev in trace.committed)


class LateSeeds:
    """Four LPs, each seeding one event inside the end time and one past it,
    in that order; the early seed sends the next LP one child."""

    name = "late-seeds"
    n_lps = 4
    end_time = 3.0

    def initial_state(self, lp_id):
        return ()

    def seed_events(self, lp_id, stream):
        return [Emit(lp_id, 1.0 + lp_id / 4, "early"), Emit(lp_id, 4.0, "late")]

    def handle(self, state, event, stream):
        emits = []
        if event.payload == "early":
            emits.append(Emit((event.dest_lp + 1) % self.n_lps, 0.5, "child"))
        return state + ((event.source_lp, event.serial, event.payload),), emits

    def final_value(self, state):
        return state


def test_seeds_past_the_end_time_take_a_serial_and_never_commit():
    model, mode = LateSeeds(), OrderingMode.LEX_SEQUENCE
    seq = SequentialKernel(model, mode, 1)
    trace = seq.run()
    assert all(ev.timestamp <= model.end_time for ev in trace.committed)
    assert "late" not in {ev.payload for ev in trace.committed}
    # each late seed took serial 1, so its LP's child has serial 2
    assert sorted((ev.source_lp, ev.serial, ev.payload) for ev in trace.committed) \
        == [(lp, serial, payload) for lp in range(4)
            for serial, payload in ((0, "early"), (2, "child"))]
    assert [rt.serial for rt in seq.lps] == [3] * 4
    ref = outcome(SequentialKernel(model, mode, 1))
    assert ref == {"digest": trace.digest()}
    for workers in (2, 4):
        for chaos in range(3):
            opt = OptimisticKernel(model, mode, 1, workers, chaos=ChaosConfig(chaos))
            assert outcome(opt) == ref, (workers, chaos)


@pytest.mark.parametrize("mode, chain_length",
                         [(OrderingMode.LEX_SEQUENCE, 3), (OrderingMode.NAIVE, 1)])
def test_tiebreaks_are_keyed_by_event_identity(mode, chain_length):
    # an event's last draw is its source LP's tie-break key at its serial,
    # however often the optimistic kernel rolled its source back and re-sent
    # it (naive fails on zero-offset chains, so it runs chains of one)
    seed = 7
    model = build_model("event-ties", n_lps=16, end_time=4.0,
                        chain_length=chain_length, remote_prob=0.7)
    kernel = OptimisticKernel(model, mode, seed, 8, chaos=ChaosConfig(0, 32))
    opt = kernel.run()
    assert kernel.metrics()["rolled_back"] > 10
    seq = run_sequential(model, mode, seed)
    for ev in seq.committed + opt.committed:
        key = lp_keys(mix64(seed), ev.source_lp)[0]
        assert ev.tiebreak[-1] == draw_at(key, ev.serial)
    assert opt.digest() == seq.digest()


def test_unhashable_payloads_are_rejected_in_both_kernels():
    # anti-messages match on content, so the optimistic kernel must hash
    # payloads; both kernels refuse the model at emit rather than one of them
    # running it and the other failing deep in its queues
    model = ListPayloadTies(n_lps=8, end_time=3)
    with pytest.raises(ConfigError, match=r"LP 0 .*payload of type list"):
        run_sequential(model, OrderingMode.LEX_SEQUENCE, 1)
    with pytest.raises(ConfigError, match=r"LP 0 .*payload of type list"):
        run_optimistic(model, OrderingMode.LEX_SEQUENCE, 1, 4)


class Hops:
    """Two LPs pass a counter back and forth, one or two time units per hop,
    and each hop also sends its own LP a zero-offset echo. Every offset is of
    ``offset_type``, int or float."""

    name = "hops"
    n_lps = 2
    end_time = 6.0

    def __init__(self, offset_type):
        self.offset_type = offset_type

    def initial_state(self, lp_id):
        return 0

    def seed_events(self, lp_id, stream):
        return [Emit(lp_id, self.offset_type(1), lp_id)]

    def handle(self, state, event, stream):
        if event.zero_offset_depth:
            return state, []
        n, step = event.payload, self.offset_type
        return state + 1, [Emit(1 - event.dest_lp, step(1 + n % 2), n + 1),
                           Emit(event.dest_lp, step(0), n)]

    def final_value(self, state):
        return state


def test_integer_offsets_commit_the_float_offset_run():
    # timestamps are floats however a model spells its offsets, so an int
    # offset never changes a canonical line ("2.0", not "2")
    lex = OrderingMode.LEX_SEQUENCE
    reference = run_sequential(Hops(float), lex, 3)
    seq = run_sequential(Hops(int), lex, 3)
    stamps = [line.split(",")[4] for line in seq.canonical_lines()
              if not line.startswith("state,")]
    assert stamps[0] == "1.0" and {"2.0", "3.0"} <= set(stamps)
    assert all(type(ev.timestamp) is float for ev in seq.committed)
    assert seq.digest() == reference.digest()
    assert run_optimistic(Hops(int), lex, 3, 2).digest() == reference.digest()


def record_calls(monkeypatch, results, owner, attr):
    """Append what each call of ``owner.attr`` returns to ``results``, for
    this test only."""
    original = getattr(owner, attr)

    def recording(*args, **kw):
        result = original(*args, **kw)
        results.append(result)
        return result

    monkeypatch.setattr(owner, attr, recording)


def record_built_events(monkeypatch):
    # seeds are built through kernel_seq's binding, children through the
    # optimistic kernel's own
    built = []
    record_calls(monkeypatch, built, kernel_seq, "build_event")
    record_calls(monkeypatch, built, kernel_optimistic, "build_event")
    return built


def record_constructed_events(monkeypatch):
    # build_event makes its events through its own constructor binding,
    # anything else would call Event
    constructed = []
    record_calls(monkeypatch, constructed, kernel_seq, "_new_event")
    record_calls(monkeypatch, constructed, Event, "__init__")
    return constructed


def test_anti_messages_are_the_events_themselves(monkeypatch):
    # cancelling a speculative send re-sends the child itself, so every
    # Event the run constructs is one that build_event built
    built = record_built_events(monkeypatch)
    constructed = record_constructed_events(monkeypatch)
    model = build_model("event-ties", **TIES)
    kernel = OptimisticKernel(model, OrderingMode.LEX_SEQUENCE, 1, 4,
                              chaos=ChaosConfig(0, 4))
    kernel.run()
    assert kernel.metrics()["antis_sent"] > 10
    events = [ev for ev in built if ev is not None]
    assert len(constructed) == len(events) > 0


def test_an_emit_past_the_end_time_builds_no_event(monkeypatch):
    # phold keeps one event per LP alive, and each LP's last event emits
    # past the end: that emit takes a serial, but no Event is constructed
    model = build_model("phold", n_lps=16, end_time=5.0)
    constructed = record_constructed_events(monkeypatch)
    seq = SequentialKernel(model, OrderingMode.LEX_SEQUENCE, 1)
    committed = len(seq.run().committed)
    assert len(constructed) == committed
    assert sum(rt.serial for rt in seq.lps) == committed + model.n_lps
    constructed.clear()
    built = record_built_events(monkeypatch)
    kernel = OptimisticKernel(model, OrderingMode.LEX_SEQUENCE, 1, 4)
    assert len(kernel.run().committed) == committed
    events = [ev for ev in built if ev is not None]
    assert len(constructed) == len(events) < len(built)
    assert all(ev.timestamp <= model.end_time for ev in events)
    assert sum(rt.serial for rt in kernel.lps) == committed + model.n_lps


def test_match_key_is_computed_once_per_event_sent(monkeypatch):
    # a content key is computed only for a child sent to another PE, once,
    # when it is built; seeds and local children are matched by identity,
    # and no arrival or anti-message recomputes a key
    keys = []
    record_calls(monkeypatch, keys, Event, "match_key")
    model = build_model("event-ties", n_lps=32, end_time=4.0, chain_length=2)
    kernel = OptimisticKernel(model, OrderingMode.LEX_SEQUENCE, 1, 8)
    kernel.run()
    m = kernel.metrics()
    assert m["rollbacks"] > 10 and m["antis_sent"] > 0
    assert 0 < len(keys) == m["messages_sent"] - m["antis_sent"]


class StateZeroOffsetTies(EventTiesModel):
    """event-ties whose chains continue at zero offset on a state condition.

    A child is zero-offset exactly when the LP's new mean has an integer
    part divisible by 3, so how long a zero-offset chain grows, and whether
    it outgrows a small sequence cap, depends on the order in which LPs saw
    their events. Speculative orders reach chains the sequential run never
    builds.
    """

    def handle(self, state, event, stream):
        new_state, emits = super().handle(state, event, stream)
        offset = 0.0 if int(new_state.mean_val) % 3 == 0 else 1.0
        return new_state, [Emit(e.dest_lp, offset, e.payload) for e in emits]


class ModelFault(Exception):
    pass


class StateFaultTies(StateZeroOffsetTies):
    """The same chains, but the handler itself raises where a chain would
    grow past three draws, naming the event it was handling."""

    def handle(self, state, event, stream):
        new_state, emits = super().handle(state, event, stream)
        if event.zero_offset_depth >= 2 and emits[0].offset == 0.0:
            raise ModelFault(f"chain too deep at {event!r}")
        return new_state, emits


class StateBadDestinationTies(StateZeroOffsetTies):
    """The same chains, but where StateFaultTies raises, the handler emits
    to an LP that does not exist, which building the child refuses."""

    def handle(self, state, event, stream):
        new_state, emits = super().handle(state, event, stream)
        if event.zero_offset_depth >= 2 and emits[0].offset == 0.0:
            emits = [Emit(self.n_lps, 0.0, emits[0].payload)]
        return new_state, emits


class StateListPayloadTies(StateZeroOffsetTies):
    """The same chains, but where StateFaultTies raises, the handler emits
    an unhashable payload; building the child refuses it with an error
    raised while handling the TypeError of ``hash``, so chained to it."""

    def handle(self, state, event, stream):
        new_state, emits = super().handle(state, event, stream)
        if event.zero_offset_depth >= 2 and emits[0].offset == 0.0:
            emits = [Emit(emits[0].dest_lp, 0.0, [emits[0].payload])]
        return new_state, emits


FAULT_CASES = ((StateZeroOffsetTies, SequenceCapExceeded),
               (StateFaultTies, ModelFault),
               (StateBadDestinationTies, ConfigError))
FAULT_PARAMS = {"n_lps": 8, "remote_prob": 0.7, "end_time": 4}
# the seeds in 0..39 whose sequential run completes with sequence cap 3
COMPLETING_SEEDS = (0, 14, 17, 24, 27, 29, 35, 39)


@pytest.mark.parametrize("model_class", (StateZeroOffsetTies, StateFaultTies,
                                         StateBadDestinationTies))
def test_speculative_faults_are_contained(model_class):
    # a fault raised by a speculative order that the sequential run never
    # takes is rolled back with its event instead of ending the run
    model = model_class(**FAULT_PARAMS)
    for seed in COMPLETING_SEEDS:
        ref = run_sequential(model, OrderingMode.LEX_SEQUENCE, seed,
                             seq_cap=3).digest()
        for chaos in range(3):
            opt = run_optimistic(model, OrderingMode.LEX_SEQUENCE, seed, 4,
                                 chaos_seed=chaos, seq_cap=3)
            assert opt.digest() == ref, (seed, chaos)


def test_speculative_fault_rounds_are_frozen():
    # while a faulted entry is live a GVT round runs after every step; this
    # pins those rounds (gvt_rounds among every metrics() counter) in the
    # runs that complete after rolling back their speculative faults
    rows = []
    for model_class, _ in FAULT_CASES:
        model = model_class(**FAULT_PARAMS)
        for seed in COMPLETING_SEEDS:
            for chaos in range(3):
                kernel = OptimisticKernel(model, OrderingMode.LEX_SEQUENCE, seed, 4,
                                          chaos=ChaosConfig(chaos), gvt_interval=16,
                                          seq_cap=3)
                kernel.run()
                rows.append((model_class.__name__, seed, chaos, kernel.metrics()))
    digest = hashlib.sha256(repr(rows).encode()).hexdigest()
    assert digest == "811b5440cb0851d61c6e4e4e5a8dc74b2d410a3b4ac35b50a864ab743654a91d"


@pytest.mark.parametrize("model_class,error", FAULT_CASES)
def test_committed_faults_raise_the_sequential_error(model_class, error):
    model = model_class(**FAULT_PARAMS)
    seed = 1  # not completing: the sequential run raises
    with pytest.raises(error) as seq:
        run_sequential(model, OrderingMode.LEX_SEQUENCE, seed, seq_cap=3)
    for chaos in range(3):
        with pytest.raises(error) as opt:
            run_optimistic(model, OrderingMode.LEX_SEQUENCE, seed, 4,
                           chaos_seed=chaos, seq_cap=3)
        assert str(opt.value) == str(seq.value)


@pytest.mark.parametrize("seed", (1, 2, 3))
def test_committed_faults_raise_promptly(seed):
    # sequentially these runs raise after 33, 20 and 43 events; the fault
    # must not wait for the next regular GVT round, 4096 events on
    model = StateFaultTies(n_lps=256, remote_prob=0.7, end_time=10)
    kernel = OptimisticKernel(model, OrderingMode.LEX_SEQUENCE, seed, 4, seq_cap=3)
    with pytest.raises(ModelFault):
        kernel.run()
    assert kernel.global_processed < 200


class BadDestination:
    """Four LPs tick at 1, 2 and 3; LP 1's tick at 2 also emits to ``dest``
    at ``offset``, with the forced tie-break ``forced`` unless it is None."""

    name = "bad-destination"
    n_lps = 4
    end_time = 3.0

    def __init__(self, dest, forced=None, offset=0.5):
        self.dest = dest
        self.forced = forced
        self.offset = offset

    def initial_state(self, lp_id):
        return 0

    def seed_events(self, lp_id, stream):
        return [Emit(lp_id, 1.0)]

    def handle(self, state, event, stream):
        emits = [Emit(event.dest_lp, 1.0)]
        if event.dest_lp == 1 and event.timestamp == 2.0:
            emits.append(Emit(self.dest, self.offset, None, self.forced))
        return state + 1, emits

    def final_value(self, state):
        return state


@pytest.mark.parametrize("dest", (-1, 4, 2.0, True))
def test_bad_destination_is_the_same_error_in_both_kernels(dest):
    # a negative index Python lists would accept, one past the last LP, a
    # float and a bool are each one ConfigError, raised at the same event in both
    model = BadDestination(dest)
    ref = outcome(SequentialKernel(model, OrderingMode.LEX_SEQUENCE, 1))
    assert ref == {"error": f"ConfigError: LP 1 emitted an event to LP {dest!r}; "
                            f"destinations must be integers in [0, 4)"}
    for chaos in range(3):
        opt = outcome(OptimisticKernel(model, OrderingMode.LEX_SEQUENCE, 1, 2,
                                       chaos=ChaosConfig(chaos)))
        assert opt == ref, chaos


@pytest.mark.parametrize("offset", ("1", None, 10 ** 400, -1.0, float("nan"), True),
                         ids=("str", "none", "huge-int", "negative", "nan", "bool"))
def test_bad_offset_is_the_same_error_in_both_kernels(offset):
    # an offset that is not a real number >= 0 in float range, or is a bool,
    # is one ConfigError naming the LP and the offset, at the same event
    model = BadDestination(2, offset=offset)
    ref = outcome(SequentialKernel(model, OrderingMode.LEX_SEQUENCE, 1))
    assert ref == {"error": f"ConfigError: LP 1 emitted an event at offset {offset!r}; "
                            f"offsets must be real numbers >= 0 in float range"}
    for chaos in range(3):
        opt = outcome(OptimisticKernel(model, OrderingMode.LEX_SEQUENCE, 1, 2,
                                       chaos=ChaosConfig(chaos)))
        assert opt == ref, chaos


def test_integral_destinations_are_normalised():
    # any integral type but bool names an LP; the event carries a plain int
    model = build_model("event-ties", n_lps=4, end_time=2.0)
    rt = kernel_seq.make_lps(model, 1)[0]
    ev = kernel_seq.build_event(rt, None, Emit(IntSubclass(1), 1.0), OrderingMode.LEX_SEQUENCE,
                                DEFAULT_SEQUENCE_CAP, model)
    assert ev.dest_lp == 1 and type(ev.dest_lp) is int


class IntSubclass(int):
    pass


@pytest.mark.parametrize("dest", (np.int64(2), IntSubclass(2)),
                         ids=("numpy-int64", "int-subclass"))
def test_integral_destinations_name_the_same_lp_in_both_kernels(dest):
    # LP 1's extra event at 2.5 goes to LP 2 whatever integral type names it
    want = SequentialKernel(BadDestination(2), OrderingMode.LEX_SEQUENCE, 1).run()
    model = BadDestination(dest)
    for kernel in (SequentialKernel(model, OrderingMode.LEX_SEQUENCE, 1),
                   OptimisticKernel(model, OrderingMode.LEX_SEQUENCE, 1, 2)):
        trace = kernel.run()
        assert trace.digest() == want.digest()
        extra = [ev for ev in trace.committed if ev.timestamp == 2.5]
        assert [ev.dest_lp for ev in extra] == [2]
        assert type(extra[0].dest_lp) is int


@pytest.mark.parametrize("forced,problem", (
    (0.4, "must be an integer, got 0.4"),
    ("x", "must be an integer, got 'x'"),
    (True, "must be an integer, got True"),
    (-5, "must be >= 0"),
    (2**64, f"must be < {2**64}"),
), ids=("float", "str", "bool", "negative", "too-wide"))
def test_bad_forced_tiebreak_is_the_same_error_in_both_kernels(forced, problem):
    # a forced tie-break is a 64-bit draw: anything else would be digested
    # as a malformed field, or fail only in the digest, after the run
    model = BadDestination(2, forced)
    seq = SequentialKernel(model, OrderingMode.LEX_SEQUENCE, 1)
    ref = outcome(seq)
    assert ref == {"error": f"ConfigError: LP 1's forced tie-break {problem}"}
    # raised while LP 1 builds the children of its tick at 2, before the
    # refused one took a serial, and before any LP handled its tick at 3
    assert (seq.lps[1].state, seq.lps[1].serial) == (2, 3)
    assert max(rt.state for rt in seq.lps) <= 2
    for workers in (2, 4):
        for chaos in range(3):
            opt = outcome(OptimisticKernel(model, OrderingMode.LEX_SEQUENCE, 1,
                                           workers, chaos=ChaosConfig(chaos)))
            assert opt == ref, (workers, chaos)


@pytest.mark.parametrize("forced", (0, 2**64 - 1))
def test_forced_tiebreaks_span_the_draw_range(forced):
    model = BadDestination(2, forced)
    want = SequentialKernel(model, OrderingMode.LEX_SEQUENCE, 1).run()
    extra = [ev for ev in want.committed if ev.timestamp == 2.5]
    assert [ev.tiebreak for ev in extra] == [(forced,)]
    opt = OptimisticKernel(model, OrderingMode.LEX_SEQUENCE, 1, 2).run()
    assert opt.digest() == want.digest()


def build_fuzz_model(name, n_lps, end_time, remote_prob):
    if name == "phold":
        return build_model(name, n_lps=n_lps, end_time=float(end_time),
                           remote_prob=remote_prob)
    if name == "event-ties-stress":
        return build_model(name, n_lps=n_lps, end_time=end_time, height=2,
                           arity=2, remote_prob=remote_prob)
    classes = {"event-ties": EventTiesModel, "state-zero-offset": StateZeroOffsetTies,
               "state-fault": StateFaultTies}
    return classes[name](n_lps=n_lps, end_time=end_time, chain_length=3,
                         remote_prob=remote_prob)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(name=st.sampled_from(("phold", "event-ties", "event-ties-stress",
                             "state-zero-offset", "state-fault")),
       n_lps=st.integers(1, 16), end_time=st.integers(1, 4),
       remote_prob=st.sampled_from((0.0, 0.3, 0.7, 1.0)),
       mode=st.sampled_from((OrderingMode.UNBIASED_SINGLE, OrderingMode.ADDITIVE,
                             OrderingMode.LEX_SEQUENCE, OrderingMode.NAIVE)),
       seq_cap=st.integers(2, 4), seed=st.integers(0, 2**32 - 1),
       workers=st.integers(2, 8), chaos=st.integers(0, 3),
       max_delay=st.sampled_from((0, 4, 64, 300)),
       gvt_interval=st.sampled_from((1, 16, DEFAULT_GVT_INTERVAL)))
def test_differential_outcome_matches_sequential(name, n_lps, end_time, remote_prob,
                                                 mode, seq_cap, seed, workers, chaos,
                                                 max_delay, gvt_interval):
    # gvt_interval 1 commits after every step, so a run's last commit key
    # carries across each of its GVT rounds (measured: 130 such runs, about
    # 1,600 rounds in all)
    model = build_fuzz_model(name, n_lps, end_time, remote_prob)
    ref = outcome(SequentialKernel(model, mode, seed, seq_cap=seq_cap))
    opt = outcome(OptimisticKernel(model, mode, seed, workers,
                                   chaos=ChaosConfig(chaos, max_delay),
                                   gvt_interval=gvt_interval, seq_cap=seq_cap))
    assert opt == ref


# -- the collector pause --------------------------------------------------

# every built-in model with each mode its runs complete in; the tie models'
# zero-offset events are refused in unbiased-single and break causality in
# naive, and the chain models' in biased too
TIE_MODES = (OrderingMode.NONE, OrderingMode.ADDITIVE, OrderingMode.LEX_SEQUENCE)
SCRIPT_MODES = (*TIE_MODES, OrderingMode.BIASED_RULESET)
COMPLETING_RUNS = (
    ("phold", build_model("phold", n_lps=16, end_time=5.0, remote_prob=0.5),
     tuple(OrderingMode)),
    ("event-ties", build_model("event-ties", **TIES), TIE_MODES),
    ("coupled", build_model("event-ties", coupled=True, **TIES), TIE_MODES),
    ("stress", build_model("event-ties-stress", n_lps=8, end_time=2, height=3,
                           arity=2, remote_prob=0.5), TIE_MODES),
    ("scripted-pair", ScriptedModel(), SCRIPT_MODES),
    # the fairness probe's pair of chains at depth 3
    ("tie-pair", build_model("event-ties", n_lps=2, chain_length=4, remote_prob=0.0,
                             end_time=1.0), SCRIPT_MODES),
)


@pytest.mark.parametrize("optimistic", (False, True), ids=("sequential", "optimistic"))
@pytest.mark.parametrize("model,mode", [
    pytest.param(model, mode, id=f"{name}-{mode.value}")
    for name, model, modes in COMPLETING_RUNS for mode in modes])
def test_runs_leave_no_cyclic_garbage(model, mode, optimistic):
    # why a run may pause the collector: reference counting alone frees all
    # that a completed run drops, rollbacks and anti-messages included
    kernel = (OptimisticKernel(model, mode, 3, 4, chaos=ChaosConfig(1)) if optimistic
              else SequentialKernel(model, mode, 3))
    gc.collect()
    kernel.run()
    assert gc.collect() == 0


EVENT_TIES_64 = build_model("event-ties", n_lps=64, end_time=3.0)
# seed 17 completes, and at 2 and 8 PEs only after rolling back a fault;
# seed 1 commits a fault, so its runs raise the case's error
DROPPED_KERNEL_RUNS = (
    *[pytest.param(EVENT_TIES_64, OrderingMode.from_name(mode), 1, DEFAULT_SEQUENCE_CAP,
                   None, id=f"event-ties-{mode}") for mode in ("lex", "none", "additive")],
    *[pytest.param(model_class(**FAULT_PARAMS), OrderingMode.LEX_SEQUENCE,
                   COMPLETING_SEEDS[2], 3, None, id=model_class.__name__)
      for model_class, _ in FAULT_CASES],
    *[pytest.param(model_class(**FAULT_PARAMS), OrderingMode.LEX_SEQUENCE, 1, 3, error,
                   id=f"{model_class.__name__}-raises")
      for model_class, error in FAULT_CASES],
    pytest.param(StateListPayloadTies(**FAULT_PARAMS), OrderingMode.LEX_SEQUENCE,
                 COMPLETING_SEEDS[2], 3, None, id="StateListPayloadTies"),
    pytest.param(StateListPayloadTies(**FAULT_PARAMS), OrderingMode.LEX_SEQUENCE, 1, 3,
                 ConfigError, id="StateListPayloadTies-raises"),
)


@pytest.mark.parametrize("workers", (None, 1, 2, 8),
                         ids=("sequential", "1pe", "2pe", "8pe"))
@pytest.mark.parametrize("model,mode,seed,seq_cap,error", DROPPED_KERNEL_RUNS)
def test_a_dropped_kernel_leaves_no_cyclic_garbage(model, mode, seed, seq_cap, error,
                                                   workers):
    # nothing points back up the kernel's object graph, and a fault is kept
    # and raised without a traceback that reaches its history entry, so
    # reference counting alone frees a kernel and its trace, or the error it
    # raised, once both are dropped
    kernel = (SequentialKernel(model, mode, seed, seq_cap=seq_cap) if workers is None
              else OptimisticKernel(model, mode, seed, workers, seq_cap=seq_cap))
    gc.collect()
    if error is None:
        trace = kernel.run()
        del trace
    else:
        with pytest.raises(error):
            kernel.run()
    del kernel
    assert gc.collect() == 0


class CollectorWatch:
    """Wraps a model, recording whether the collector was enabled in each
    handler call."""

    def __init__(self, model):
        self.model = model
        self.enabled = set()

    def __getattr__(self, name):
        return getattr(self.model, name)

    def handle(self, state, event, stream):
        self.enabled.add(gc.isenabled())
        return self.model.handle(state, event, stream)


def paused_run_outcome(kernel, enabled: bool) -> tuple:
    """(outcome, collector enabled after) of a run started with the collector
    ``enabled``; the collector is enabled again when this returns."""
    try:
        if not enabled:
            gc.disable()
        return outcome(kernel), gc.isenabled()
    finally:
        gc.enable()


@pytest.mark.parametrize("enabled", (True, False), ids=("enabled", "disabled"))
@pytest.mark.parametrize("optimistic", (False, True), ids=("sequential", "optimistic"))
def test_run_pauses_the_collector_and_restores_it(enabled, optimistic):
    # the collector is off in every handler call, and after the run it is
    # as the caller left it: a caller that disabled it keeps it disabled
    model = CollectorWatch(build_model("event-ties", **TIES))
    kernel = (OptimisticKernel(model, OrderingMode.LEX_SEQUENCE, 1, 4) if optimistic
              else SequentialKernel(model, OrderingMode.LEX_SEQUENCE, 1))
    result, after = paused_run_outcome(kernel, enabled)
    assert "digest" in result
    assert after is enabled
    assert model.enabled == {False}


@pytest.mark.parametrize("enabled", (True, False), ids=("enabled", "disabled"))
def test_a_raising_run_restores_the_collector(enabled):
    # a fault committed by the optimistic kernel, and a bad destination
    # refused by the sequential kernel
    fault = OptimisticKernel(StateFaultTies(**FAULT_PARAMS), OrderingMode.LEX_SEQUENCE,
                             1, 4, seq_cap=3)
    result, after = paused_run_outcome(fault, enabled)
    assert result["error"].startswith("ModelFault: chain too deep")
    assert after is enabled
    bad = SequentialKernel(BadDestination(4), OrderingMode.LEX_SEQUENCE, 1)
    result, after = paused_run_outcome(bad, enabled)
    assert result["error"].startswith("ConfigError: LP 1 emitted an event to LP 4")
    assert after is enabled
