"""Acceptance criteria, one test per criterion.

Run with ``pytest -v tests/test_acceptance.py``: the verbose output gives one
pass/fail line per criterion. Each test states its tolerance inline and
prints measured values for -s runs and failure reports.
"""

import math
import random
import time

import numpy as np
import pytest

from tiewarp.errors import CausalityViolation
from tiewarp.harness import (
    RunSpec,
    audit_trace,
    benchmark_sequential,
    execute,
    run_fairness,
    verify_determinism,
)
from tiewarp.kernel_seq import run_sequential
from tiewarp.models import build_model, stress_tree_node_count
from tiewarp.scenarios import (
    SCRIPT_ADDITIVE_ORDER,
    SCRIPT_LEX_ORDER,
    ScriptedModel,
    committed_names,
)
from tiewarp.timebase import OrderingMode, TimeSignature, derive_child_signature

from signature_oracle import EQUAL, compare_signatures, is_causal_prefix

# shared reference configuration: 256 LPs, every event part of a tie chain
REFERENCE_TIES = dict(model="event-ties", mode="lex", n_lps=256, end_time=10.0,
                      chain_length=2, seed=1)

DRAW_MODES = (OrderingMode.UNBIASED_SINGLE, OrderingMode.ADDITIVE,
              OrderingMode.LEX_SEQUENCE)


@pytest.fixture(scope="module")
def audit_pool():
    """Traces accumulated by earlier criteria for the causality audit."""
    return []


@pytest.fixture(scope="module")
def scripted_traces():
    return {
        "additive": run_sequential(ScriptedModel(), OrderingMode.ADDITIVE, 1),
        "lex": run_sequential(ScriptedModel(), OrderingMode.LEX_SEQUENCE, 1),
    }


def test_criterion_01_parallel_runs_reproduce_sequential_digest(audit_pool):
    # 256 LPs, chain length 2, end 10: workers {1,2,4,8} x chaos {0,1,2} x 2
    # repeats must all reproduce the sequential digest, in under 60 s.
    started = time.perf_counter()
    spec = RunSpec(**REFERENCE_TIES)
    report = verify_determinism(spec, workers=(1, 2, 4, 8),
                                chaos_seeds=(0, 1, 2), repeats=2)
    elapsed = time.perf_counter() - started
    assert len(report["cells"]) == 24
    assert report["faults"] == 0
    assert report["verdict"] == "deterministic", report["distinct_digests"]
    assert elapsed < 60.0, f"sweep took {elapsed:.1f}s"
    # keep a few traces for the audit criterion
    seq_trace, _ = execute(spec)
    audit_pool.append(("lex", seq_trace))
    for workers, chaos in ((2, 0), (8, 1)):
        trace, _ = execute(RunSpec(**{**spec.to_dict(), "workers": workers,
                                      "chaos_seed": chaos}))
        audit_pool.append(("lex", trace))
    print(f"criterion 1: 24/24 digests == sequential in {elapsed:.1f}s")


def test_criterion_02_no_draw_mode_loses_schedule_independence():
    # identical configuration, mode none: five chaos seeds at 4 workers must
    # produce at least two distinct digests (or a reported fault)
    spec = RunSpec(**{**REFERENCE_TIES, "mode": "none"})
    report = verify_determinism(spec, workers=(4,),
                                chaos_seeds=(0, 1, 2, 3, 4), repeats=1)
    distinct = len(report["distinct_digests"])
    assert report["verdict"] in ("nondeterministic", "faulted"), (
        f"mode none unexpectedly deterministic ({distinct} digest(s))")
    print(f"criterion 2: mode none gave {distinct} distinct digests, "
          f"{report['faults']} fault(s)")


def test_criterion_03_hundred_random_configs_bit_exact(audit_pool):
    rng = random.Random(0xACCE97)
    failures = []
    for case in range(100):
        name = ("phold", "event-ties", "event-ties-stress")[case % 3]
        mode = ("additive", "lex")[case % 2]
        common = dict(seed=rng.randint(0, 10 ** 6), remote_prob=rng.random())
        if name == "phold":
            params = dict(n_lps=rng.randint(2, 8),
                          end_time=2.0 + 3.0 * rng.random())
        elif name == "event-ties":
            params = dict(n_lps=rng.randint(2, 8),
                          end_time=float(rng.randint(1, 4)),
                          chain_length=rng.randint(1, 3),
                          coupled=rng.random() < 0.25)
        else:
            params = dict(n_lps=rng.randint(2, 6),
                          end_time=float(rng.randint(1, 3)),
                          height=rng.randint(0, 2), arity=rng.randint(1, 3))
        spec = RunSpec(model=name, mode=mode, **common, **params)
        seq, _ = execute(spec)
        workers = rng.choice((2, 4))
        chaos = rng.randint(0, 2)
        opt, _ = execute(RunSpec(**{**spec.to_dict(), "workers": workers,
                                    "chaos_seed": chaos}))
        if opt.digest() != seq.digest():
            failures.append((case, spec.to_dict(), workers, chaos))
        elif case < 10:
            audit_pool.append((mode, opt))
    assert not failures, f"{len(failures)}/100 diverged: {failures[:3]}"
    print("criterion 3: 100/100 random configs bit-exact")


def test_criterion_04_published_tie_break_orders(scripted_traces):
    got_additive = committed_names(scripted_traces["additive"])
    got_lex = committed_names(scripted_traces["lex"])
    assert got_additive == SCRIPT_ADDITIVE_ORDER, got_additive
    assert got_lex == SCRIPT_LEX_ORDER, got_lex
    with pytest.raises(CausalityViolation):
        run_sequential(ScriptedModel(), OrderingMode.NAIVE, 1)
    print(f"criterion 4: additive {got_additive}, lex {got_lex}, "
          f"naive derivation refused")


def test_criterion_05_lex_fairness_depth_one():
    # chain tail vs rival under lex: expected 0.5, tolerance +/- 0.047
    # (three binomial sigma at 1000 samples), in under 5 minutes
    started = time.perf_counter()
    report = run_fairness("lex", depth=1, samples=1000)
    elapsed = time.perf_counter() - started
    assert abs(report.p_hat - 0.5) <= 0.047, report
    assert elapsed < 300.0, f"fairness run took {elapsed:.1f}s"
    print(f"criterion 5: lex depth-1 p_hat={report.p_hat:.4f} "
          f"(|dev|={abs(report.p_hat - 0.5):.4f} <= 0.047) in {elapsed:.1f}s")


def test_criterion_06_additive_fairness_matches_independent_oracle():
    # additive depth-1 tail beats the rival iff the sum of two uniform draws
    # is below one independent uniform; closed form 1/6, tolerance +/- 0.025
    report = run_fairness("additive", depth=1, samples=2000)
    assert abs(report.p_hat - 1 / 6) <= 0.025, report
    # independent Monte Carlo oracle for the closed form itself
    rng = np.random.default_rng(20260815)
    n = 2_000_000
    wins = np.count_nonzero(rng.random(n) + rng.random(n) < rng.random(n))
    mc = wins / n
    sigma = math.sqrt((1 / 6) * (5 / 6) / n)
    assert abs(mc - 1 / 6) <= 4 * sigma, f"oracle mc={mc:.5f}"
    assert abs(report.expected - 1 / 6) < 1e-12
    print(f"criterion 6: additive depth-1 p_hat={report.p_hat:.4f}, "
          f"mc oracle={mc:.5f}, closed form 1/6")


def test_criterion_07_causality_audit_zero_violations(audit_pool, scripted_traces):
    audit_pool.append(("additive", scripted_traces["additive"]))
    audit_pool.append(("lex", scripted_traces["lex"]))
    assert len(audit_pool) >= 10
    total = 0
    for mode_name, trace in audit_pool:
        report = audit_trace(trace, mode_name)
        assert report["violations"] == [], (mode_name, report["violations"][:3])
        total += report["events"]
    print(f"criterion 7: {len(audit_pool)} traces, {total} committed events, "
          f"0 violations")


def test_criterion_08_event_count_closed_forms():
    rng = random.Random(88)
    for _ in range(10):
        n_lps = rng.randint(1, 10)
        end = rng.randint(1, 5)
        chain = rng.randint(1, 4)
        model = build_model("event-ties", n_lps=n_lps, end_time=float(end),
                            chain_length=chain, remote_prob=rng.random())
        trace = run_sequential(model, OrderingMode.LEX_SEQUENCE,
                               rng.randint(0, 9999))
        assert len(trace.committed) == n_lps * end * chain

    def brute_force_nodes(height, arity):
        def walk(level):
            if level == height:
                return 1
            return 1 + sum(walk(level + 1) for _ in range(arity))
        return walk(0)

    for height, arity in ((1, 2), (2, 3), (5, 3)):
        want_nodes = brute_force_nodes(height, arity)
        assert stress_tree_node_count(height, arity) == want_nodes
        model = build_model("event-ties-stress", n_lps=2, end_time=2.0,
                            height=height, arity=arity, remote_prob=0.3)
        trace = run_sequential(model, OrderingMode.ADDITIVE, 17)
        assert len(trace.committed) == 2 * 2 * want_nodes
    print("criterion 8: ties counts n_lps*end*chain (10 configs); "
          "stress counts match brute-force trees for (1,2),(2,3),(5,3)")


def test_criterion_09_signature_overhead_within_2x():
    # >= 1e6 events of pure-future phold at 1024 LPs; the draw-carrying mode
    # must cost at most 2x the bare-timestamp mode (soft gate on wall time)
    base = dict(model="phold", mode="none", n_lps=1024, end_time=1000.0,
                seed=1, remote_prob=0.1)
    none_result = benchmark_sequential(RunSpec(**base))
    lex_result = benchmark_sequential(RunSpec(**{**base, "mode": "lex"}))
    assert none_result["events"] >= 1_000_000
    assert lex_result["events"] == none_result["events"]
    ratio = lex_result["seconds"] / none_result["seconds"]
    assert ratio <= 2.0, f"lex/none wall ratio {ratio:.2f}"
    print(f"criterion 9: {lex_result['events']} events, "
          f"none {none_result['seconds']:.1f}s, lex {lex_result['seconds']:.1f}s, "
          f"ratio {ratio:.2f} <= 2.0")


def test_criterion_10_comparator_laws_at_scale():
    rng = random.Random(0x0DD5)

    def sample(mode):
        ts = float(rng.randrange(3))
        if mode is OrderingMode.LEX_SEQUENCE:
            tb = tuple(rng.randrange(8) for _ in range(1 + rng.randrange(3)))
        else:
            tb = (rng.randrange(16),)
        ident = (rng.randrange(3), rng.randrange(4), rng.randrange(6))
        return TimeSignature(ts, tb), ident

    checked = 0
    for mode in DRAW_MODES + (OrderingMode.BIASED_RULESET,):
        if mode is OrderingMode.BIASED_RULESET:
            pool = [(TimeSignature(float(rng.randrange(2))),
                     (rng.randrange(3), rng.randrange(4),
                      rng.randrange(6))) for _ in range(300)]
        else:
            # tiny draw alphabet forces heavy tie traffic through every branch
            pool = [sample(mode) for _ in range(300)]
        for _ in range(100_000):
            (a, ia), (b, ib), (c, ic) = (rng.choice(pool) for _ in range(3))
            ab = compare_signatures(a, b, mode, a_identity=ia, b_identity=ib)
            ba = compare_signatures(b, a, mode, a_identity=ib, b_identity=ia)
            assert ab == -ba
            bc = compare_signatures(b, c, mode, a_identity=ib, b_identity=ic)
            ac = compare_signatures(a, c, mode, a_identity=ia, b_identity=ic)
            if ab == bc and ab != EQUAL:
                assert ac == ab
            if ab == EQUAL and bc == EQUAL:
                assert ac == EQUAL
            checked += 1

    prefix_checked = 0
    for _ in range(10_000):
        parent = TimeSignature(1.0, tuple(rng.randrange(2 ** 64)
                                          for _ in range(1 + rng.randrange(3))))
        child = TimeSignature(*derive_child_signature(
            parent, 0.0, rng.randrange(2 ** 64), OrderingMode.LEX_SEQUENCE))
        assert is_causal_prefix(parent, child)
        assert compare_signatures(parent, child, OrderingMode.LEX_SEQUENCE) < 0
        prefix_checked += 1
    print(f"criterion 10: {checked} ordered triples across 4 modes, "
          f"{prefix_checked} prefix pairs, all laws hold")
