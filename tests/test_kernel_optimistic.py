"""Optimistic kernel: bit-exact equivalence with the sequential reference."""

import random

import pytest

from tiewarp.errors import ConfigError, LivelockDetected
from tiewarp.harness import audit_trace
from tiewarp.kernel_optimistic import ChaosConfig, OptimisticKernel, run_optimistic
from tiewarp.kernel_seq import run_sequential
from tiewarp.models import Emit, EventTiesConfig, EventTiesModel, build_model
from tiewarp.scenarios import ScriptedModel, committed_names, SCRIPT_LEX_ORDER
from tiewarp.timebase import OrderingMode
from tiewarp.trace import first_divergence

# tie-heavy configuration that provokes hundreds of rollbacks (measured:
# >50 rollbacks and >60 annihilations at 4 workers, chaos seed 0)
TIES = dict(n_lps=8, end_time=5.0, chain_length=3, remote_prob=0.7)


def run_pair(model, mode, seed, workers, chaos_seed=0, **kw):
    seq = run_sequential(model, mode, seed)
    opt = run_optimistic(model, mode, seed, workers, chaos_seed=chaos_seed, **kw)
    return seq, opt


def test_single_worker_matches_sequential():
    model = build_model("event-ties", **TIES)
    seq, opt = run_pair(model, OrderingMode.LEX_SEQUENCE, 1, workers=1)
    assert opt.digest() == seq.digest()


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
    assert first_divergence(seq, opt) is None


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
    assert trace.net_event_count == model.expected_net_events()


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


def test_none_mode_is_schedule_dependent_on_ties():
    model = build_model("event-ties", **TIES)
    digests = {run_optimistic(model, OrderingMode.NONE, 1, 4,
                              chaos_seed=chaos).digest()
               for chaos in range(5)}
    assert len(digests) > 1, "tie commits should depend on the schedule"


def test_none_mode_counts_are_schedule_independent():
    model = build_model("event-ties", n_lps=6, end_time=4.0, chain_length=2)
    counts = {run_optimistic(model, OrderingMode.NONE, 1, 3,
                             chaos_seed=chaos).net_event_count
              for chaos in range(4)}
    assert counts == {model.expected_net_events()}


def test_naive_derivation_livelocks():
    model = build_model("event-ties", n_lps=6, end_time=4.0, chain_length=3)
    with pytest.raises(LivelockDetected):
        run_optimistic(model, OrderingMode.LEX_SEQUENCE, 5, 4, naive=True)


def test_livelock_bound_is_configurable():
    model = build_model("event-ties", n_lps=6, end_time=4.0, chain_length=3)
    with pytest.raises(LivelockDetected) as info:
        run_optimistic(model, OrderingMode.LEX_SEQUENCE, 5, 4, naive=True,
                       livelock_bound=8)
    assert info.value.count >= 8


def test_audit_passes_on_optimistic_traces():
    model = build_model("event-ties", **TIES)
    for mode in (OrderingMode.ADDITIVE, OrderingMode.LEX_SEQUENCE):
        trace = run_optimistic(model, mode, 6, 4, chaos_seed=2)
        report = audit_trace(trace, mode.value)
        assert report["violations"] == []
        assert report["events"] == model.expected_net_events()


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


def test_unhashable_payloads_are_rejected_in_both_kernels():
    # anti-messages match on content, so the optimistic kernel must hash
    # payloads; both kernels refuse the model at emit rather than one of them
    # running it and the other failing deep in its queues
    model = ListPayloadTies(EventTiesConfig(n_lps=8, end_time=3))
    with pytest.raises(ConfigError, match=r"LP 0 .*payload of type list"):
        run_sequential(model, OrderingMode.LEX_SEQUENCE, 1)
    with pytest.raises(ConfigError, match=r"LP 0 .*payload of type list"):
        run_optimistic(model, OrderingMode.LEX_SEQUENCE, 1, 4)
