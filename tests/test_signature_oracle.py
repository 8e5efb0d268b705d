"""The causal audit of committed traces, which orders by the comparator oracle."""

import pytest

from tiewarp import timebase
from tiewarp.harness import RunSpec, execute
from tiewarp.kernel_seq import run_sequential
from tiewarp.models import StressModel
from tiewarp.timebase import OrderingMode
from tiewarp.trace import Event, Trace

import signature_oracle
from signature_oracle import MalformedSignature, audit_trace

TIES_SPEC = RunSpec(model="event-ties", mode="lex", n_lps=6, end_time=4.0,
                    chain_length=2, seed=3)
# a lower tie-break committed after a higher one, at one timestamp
REGRESSION = ((0, 0, 1.0, (5,), None), (1, 0, 1.0, (3,), None))


def synthetic_trace(entries):
    return Trace(committed=[
        Event(0, lp, serial, lp, ts, tb, parent_lp=parent and parent[0],
              parent_serial=parent and parent[1])
        for lp, serial, ts, tb, parent in entries
    ])


def violation_kinds(trace, mode_name, **kwargs):
    return [v["kind"] for v in audit_trace(trace, mode_name, **kwargs)["violations"]]


def test_audit_trace_accepts_clean_runs():
    trace, _ = execute(TIES_SPEC)
    report = audit_trace(trace, "lex")
    assert report["violations"] == []
    assert report["events"] == len(trace.committed)


def test_audit_trace_catches_order_regression():
    assert violation_kinds(synthetic_trace(REGRESSION), "lex") == ["order-regression"]


@pytest.mark.parametrize("mode_name", ("unbiased-single", "additive", "naive"))
def test_audit_trace_catches_order_regression_in_the_single_draw_modes(mode_name):
    assert violation_kinds(synthetic_trace(REGRESSION), mode_name) == ["order-regression"]
    assert violation_kinds(synthetic_trace(REGRESSION[::-1]), mode_name) == []


@pytest.mark.parametrize("mode_name,tiebreaks,timestamps", (
    ("lex", ((3,), (5,), (4,)), (1.0, 1.0, 1.0)),
    ("none", ((), (), ()), (1.0, 2.0, 1.5)),
), ids=("lex", "none"))
def test_audit_trace_does_not_order_by_the_kernels_key(monkeypatch, mode_name,
                                                       tiebreaks, timestamps):
    # a constant sort_key ties every pair of events: an audit keyed by it
    # would flag every commit in lex (keys must rise) and none in mode none
    # (keys may repeat). The audit orders by compare_signatures, so it flags
    # only the third commit, the one that regresses.
    for module in (timebase, signature_oracle):
        monkeypatch.setattr(module, "sort_key", lambda ev, mode: (0,), raising=False)
    trace = synthetic_trace([(lp, 0, ts, tb, None)
                             for lp, (tb, ts) in enumerate(zip(tiebreaks, timestamps))])
    report = audit_trace(trace, mode_name)
    assert report["violations"] == [{"kind": "order-regression", "commit_index": 2}]


def test_audit_trace_orders_biased_ties_by_identity():
    trace = synthetic_trace([(1, 0, 1.0, (), None), (0, 0, 1.0, (), None)])
    assert violation_kinds(trace, "biased") == ["order-regression"]
    assert violation_kinds(synthetic_trace([(0, 0, 1.0, (), None), (1, 0, 1.0, (), None)]),
                           "biased") == []


def test_audit_trace_checks_signatures_against_the_runs_cap():
    # one chain of 71 zero-offset events: its last tie-break holds 71 draws
    model = StressModel(n_lps=1, end_time=1.0, remote_prob=0.0, height=70, arity=1)
    trace = run_sequential(model, OrderingMode.LEX_SEQUENCE, 5, seq_cap=71)
    assert violation_kinds(trace, "lex", seq_cap=71) == []
    with pytest.raises(MalformedSignature, match="exceeds cap 64"):
        audit_trace(trace, "lex")


def test_audit_trace_catches_orphan_parent():
    trace = synthetic_trace([
        (0, 0, 1.0, (5,), None),
        (1, 0, 1.5, (7,), (9, 9)),  # parent (lp 9, serial 9) never committed
    ])
    assert violation_kinds(trace, "lex") == ["parent-not-committed"]


def test_audit_none_mode_allows_equal_timestamps():
    trace = synthetic_trace([
        (0, 0, 1.0, (), None),
        (1, 0, 1.0, (), None),
        (0, 1, 0.5, (), None),  # but not a regression
    ])
    assert violation_kinds(trace, "none") == ["order-regression"]
