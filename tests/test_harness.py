"""Harness drivers: determinism sweeps, fairness estimates, trace audits."""

import math
from dataclasses import asdict, fields, replace

import pytest

from tiewarp import harness
from tiewarp.errors import ConfigError, InsufficientSamples, UnmatchedAntiMessage
from tiewarp.harness import (
    RunSpec,
    audit_trace,
    benchmark_sequential,
    build_run,
    execute,
    fairness_expected,
    run_fairness,
    verify_determinism,
)
from tiewarp.kernel_optimistic import OptimisticKernel
from tiewarp.kernel_seq import SequentialKernel
from tiewarp.models import MODELS, build_model
from tiewarp.timebase import OrderingMode
from tiewarp.trace import Event, Trace

TIES_SPEC = RunSpec(model="event-ties", mode="lex", n_lps=6, end_time=4.0,
                    chain_length=2, seed=3)
# sequentially, this run raises a CausalityViolation
NAIVE_SPEC = RunSpec(model="event-ties", mode="naive", n_lps=6, end_time=4.0,
                     chain_length=3)


def raising(error, when):
    """A build_kernel whose kernels raise ``error`` when run, for the
    (spec, optimistic) pairs that ``when`` accepts."""
    build_kernel = harness.build_kernel

    def build(spec, optimistic):
        kernel = build_kernel(spec, optimistic)
        if when(spec, optimistic):
            def run():
                raise error
            kernel.run = run
        return kernel
    return build


def test_build_run_validation():
    with pytest.raises(ConfigError):
        build_run(RunSpec(model="not-a-model", mode="lex"))
    with pytest.raises(ConfigError):
        build_run(RunSpec(model="phold", mode="alphabetical"))
    # an int for a float field is stored as a float, which it must fit
    with pytest.raises(ConfigError, match="end_time is out of float range"):
        RunSpec(end_time=10 ** 400)


@pytest.mark.parametrize("name", ("seed", "chaos_seed"))
def test_run_spec_seeds_lie_in_64_bits(name):
    # seeds are hashed as 64-bit words: 2**64 would run as 0 and -1 as
    # 2**64 - 1, under a spec that records another seed
    assert getattr(RunSpec(**{name: 2 ** 64 - 1}), name) == 2 ** 64 - 1
    for value in (-1, 2 ** 64):
        with pytest.raises(ConfigError, match=name):
            RunSpec(**{name: value})


def test_execute_returns_metrics_only_for_optimistic_runs():
    trace, metrics = execute(TIES_SPEC)
    assert metrics is None
    trace2, metrics2 = execute(RunSpec(**{**TIES_SPEC.to_dict(), "workers": 2}))
    assert metrics2 is not None
    assert trace2.digest() == trace.digest()


def test_model_params_routing():
    spec = RunSpec(model="phold", mode="lex", mean_offset=2.0, remote_prob=0.2)
    assert spec.model_params() == {"n_lps": 4, "end_time": 10.0,
                                   "remote_prob": 0.2, "mean_offset": 2.0}
    spec = RunSpec(model="event-ties", mode="lex", chain_length=3, coupled=True)
    assert spec.model_params()["chain_length"] == 3
    assert spec.model_params()["coupled"] is True
    spec = RunSpec(model="event-ties-stress", mode="lex", height=1, arity=4)
    assert spec.model_params()["arity"] == 4
    # a parameter the model does not declare must keep its RunSpec default
    assert "coupled" not in RunSpec(model="phold", coupled=False).model_params()
    for model, bad in (("phold", {"chain_length": 3}), ("phold", {"coupled": True}),
                       ("event-ties", {"mean_offset": 2.0}),
                       ("event-ties-stress", {"chain_length": 2})):
        with pytest.raises(ConfigError):
            RunSpec(model=model, **bad).model_params()


def test_every_model_field_is_a_run_spec_field():
    # so model_params routes every model parameter, and a flag or a config
    # key can set it
    run_fields = {f.name for f in fields(RunSpec)}
    for name in MODELS:
        params = asdict(build_model(name, n_lps=3))
        assert set(params) <= run_fields, name
        assert RunSpec(model=name, **params).model_params() == params


def test_verify_determinism_deterministic_verdict():
    report = verify_determinism(TIES_SPEC, workers=(1, 2, 3),
                                chaos_seeds=(0, 1), repeats=2)
    assert report["verdict"] == "deterministic"
    assert report["faults"] == 0
    assert len(report["cells"]) == 3 * 2 * 2
    assert report["distinct_digests"] == [report["reference"]["digest"]]
    assert all(cell["digest"] == report["reference"]["digest"]
               for cell in report["cells"])


def test_verify_determinism_flags_schedule_dependence():
    spec = RunSpec(**{**TIES_SPEC.to_dict(), "mode": "none"})
    report = verify_determinism(spec, workers=(2, 4), chaos_seeds=(0, 1, 2),
                                repeats=1)
    assert report["verdict"] == "nondeterministic"
    assert len(report["distinct_digests"]) > 1
    assert report["faults"] == 0


def test_verify_determinism_records_faults(monkeypatch):
    # a cell that faults must be recorded, not propagated
    monkeypatch.setattr(harness, "build_kernel", raising(
        UnmatchedAntiMessage("injected"), lambda spec, optimistic: spec.workers == 4))
    report = verify_determinism(TIES_SPEC, workers=(2, 4), chaos_seeds=(0,),
                                repeats=1)
    assert report["verdict"] == "faulted"
    assert report["faults"] == 1
    errors = [c["error"] for c in report["cells"] if "error" in c]
    assert errors == ["UnmatchedAntiMessage: injected"]


def test_verify_determinism_an_error_other_than_the_reference_is_a_fault(monkeypatch):
    monkeypatch.setattr(harness, "build_kernel", raising(
        UnmatchedAntiMessage("injected"), lambda spec, optimistic: spec.workers == 4))
    report = verify_determinism(NAIVE_SPEC, workers=(2, 4), chaos_seeds=(0,),
                                repeats=1)
    assert report["verdict"] == "faulted"
    assert report["faults"] == 1
    assert report["cells"][0]["error"] == report["reference"]["error"]
    assert report["cells"][1]["error"] == "UnmatchedAntiMessage: injected"


def test_verify_determinism_a_digest_where_the_reference_raised_disagrees(monkeypatch):
    monkeypatch.setattr(harness, "build_kernel", raising(
        UnmatchedAntiMessage("injected"), lambda spec, optimistic: not optimistic))
    report = verify_determinism(TIES_SPEC, workers=(2,), chaos_seeds=(0, 1),
                                repeats=1)
    assert report["reference"] == {"error": "UnmatchedAntiMessage: injected"}
    assert report["verdict"] == "nondeterministic"
    assert report["faults"] == 0
    assert len(report["distinct_digests"]) == 1


def test_verify_determinism_reference_is_sequential_whatever_the_spec_says(monkeypatch):
    kernels = []
    outcome = harness.outcome

    def recorded(kernel):
        kernels.append(type(kernel))
        return outcome(kernel)

    monkeypatch.setattr(harness, "outcome", recorded)
    report = verify_determinism(replace(TIES_SPEC, workers=4), workers=(2,),
                                chaos_seeds=(0,), repeats=1)
    assert kernels == [SequentialKernel, OptimisticKernel]
    assert report["spec"]["workers"] == 4
    assert report["verdict"] == "deterministic"


@pytest.mark.parametrize("sweep", ({"workers": ()}, {"chaos_seeds": ()},
                                   {"repeats": 0}, {"repeats": -3}, {"repeats": 1.5}),
                         ids=("no-workers", "no-chaos-seeds", "repeats-0",
                              "repeats-negative", "repeats-fraction"))
def test_an_empty_sweep_is_a_config_error(sweep):
    # a sweep of no cells would be "deterministic" having compared nothing
    with pytest.raises(ConfigError):
        verify_determinism(TIES_SPEC, **{"workers": (1, 2), "chaos_seeds": (0,),
                                         "repeats": 1, **sweep})


def test_fairness_expected_closed_forms():
    assert fairness_expected(OrderingMode.LEX_SEQUENCE, 0) == 0.5
    assert fairness_expected(OrderingMode.LEX_SEQUENCE, 5) == 0.5
    assert fairness_expected(OrderingMode.UNBIASED_SINGLE, 0) == 0.5
    assert fairness_expected(OrderingMode.UNBIASED_SINGLE, 1) is None
    assert fairness_expected(OrderingMode.ADDITIVE, 0) == 0.5
    assert fairness_expected(OrderingMode.ADDITIVE, 1) == pytest.approx(1 / 6)
    assert fairness_expected(OrderingMode.ADDITIVE, 2) == pytest.approx(1 / 24)
    assert fairness_expected(OrderingMode.NONE, 0) is None


def test_fairness_expected_accepts_mode_names():
    # run_fairness takes names, so this helper must too; a bare string must
    # not silently fall through to the "no closed form" answer
    assert fairness_expected("additive", 2) == pytest.approx(1 / 24)
    assert fairness_expected("lex", 3) == 0.5
    with pytest.raises(ConfigError):
        fairness_expected("lexx", 0)


def test_run_fairness_input_validation():
    with pytest.raises(InsufficientSamples):
        run_fairness("lex", 0, 99)
    with pytest.raises(ConfigError):
        run_fairness("none", 0, 500)
    with pytest.raises(ConfigError):
        run_fairness("unbiased-single", 1, 500)
    # no closed form, and its chains die of CausalityViolation at depth > 0
    for depth in (0, 1):
        with pytest.raises(ConfigError):
            run_fairness("naive", depth, 500)


def test_run_fairness_lex_balanced():
    report = run_fairness("lex", 1, 200)
    assert report.expected == 0.5
    assert report.half_width == pytest.approx(3 * math.sqrt(0.25 / 200))
    assert report.within is True
    assert report.successes == round(report.p_hat * 200)


def test_run_fairness_additive_depth_one_biased_low():
    report = run_fairness("additive", 1, 600)
    assert report.expected == pytest.approx(1 / 6)
    assert report.within is True
    # the depth-1 chain tail wins far less than half the time
    assert report.p_hat < 0.3


def test_run_fairness_is_seeded():
    a = run_fairness("additive", 0, 150, base_seed=7)
    b = run_fairness("additive", 0, 150, base_seed=7)
    c = run_fairness("additive", 0, 150, base_seed=8)
    assert a == b
    assert a != c


def synthetic_trace(entries):
    return Trace(committed=[
        Event(0, lp, serial, lp, ts, tb, parent_key=parent)
        for lp, serial, ts, tb, parent in entries
    ])


def test_audit_trace_accepts_clean_runs():
    trace, _ = execute(TIES_SPEC)
    report = audit_trace(trace, "lex")
    assert report["violations"] == []
    assert report["events"] == len(trace.committed)


def test_audit_trace_catches_order_regression():
    trace = synthetic_trace([
        (0, 0, 1.0, (5,), None),
        (1, 0, 1.0, (3,), None),  # lower tie-break committed later
    ])
    report = audit_trace(trace, "lex")
    kinds = [v["kind"] for v in report["violations"]]
    assert kinds == ["order-regression"]


def test_audit_trace_catches_orphan_parent():
    trace = synthetic_trace([
        (0, 0, 1.0, (5,), None),
        (1, 0, 1.5, (7,), (9, 9)),  # parent (lp 9, serial 9) never committed
    ])
    report = audit_trace(trace, "lex")
    kinds = [v["kind"] for v in report["violations"]]
    assert kinds == ["parent-not-committed"]


def test_audit_none_mode_allows_equal_timestamps():
    trace = synthetic_trace([
        (0, 0, 1.0, (), None),
        (1, 0, 1.0, (), None),
        (0, 1, 0.5, (), None),  # but not a regression
    ])
    report = audit_trace(trace, "none")
    kinds = [v["kind"] for v in report["violations"]]
    assert kinds == ["order-regression"]


def test_benchmark_reports_throughput():
    result = benchmark_sequential(RunSpec(model="phold", mode="lex", n_lps=4,
                                          end_time=4.0, seed=1))
    assert result["mode"] == "lex"
    assert result["events"] > 0
    assert result["seconds"] >= 0.0
    assert result["events_per_second"] > 0
