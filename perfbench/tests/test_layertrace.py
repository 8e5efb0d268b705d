"""The per-layer tracer wraps the right names and leaves nothing behind.

Run from the checkout root: ``python3 -m pytest perfbench/tests -q``.
Each workload runs scaled down so the whole file takes a few seconds.
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import layertrace  # noqa: E402
import worker  # noqa: E402
from tiewarp.harness import RunSpec  # noqa: E402
from workloads import WORKLOADS, spec_fields  # noqa: E402

SMALL = {"phold-seq": {"end_time": 4.0},
         "phold-opt": {"end_time": 4.0},
         "ties-opt": {"end_time": 4.0, "n_lps": 64},
         "stress-opt": {"n_lps": 8}}


def small_spec(workload: str, seed: int = 0) -> RunSpec:
    return dataclasses.replace(RunSpec(**spec_fields(workload, seed, 0)),
                               **SMALL[workload])


@pytest.fixture(params=sorted(WORKLOADS))
def traced_run(request):
    spec = small_spec(request.param)
    return spec, worker.traced(spec)


def test_count_identities_hold_exactly(traced_run):
    spec, rec = traced_run
    m = rec["metrics"]
    assert rec["violations"] == []
    if spec.workers > 1:
        assert m["models.handle_calls"] == m["kernel_optimistic.processed"]
        assert (m["kernel_optimistic.processed"] - m["kernel_optimistic.rolled_back"]
                == rec["committed"])
    else:
        assert m["models.handle_calls"] == rec["committed"]


def test_names_bound_at_import_are_counted(traced_run):
    spec, rec = traced_run
    m = rec["metrics"]
    # lex derives one signature per built event, through kernel_seq's binding
    assert m["timebase.derive_calls"] == m["kernel_seq.build_event_calls"] > 0
    assert m["timebase.sort_key_calls"] > 0
    assert m["rngstream.draws"] > m["kernel_seq.build_event_calls"]
    if spec.workers > 1:
        assert m["kernel_seq.heap_ops"] == 0
        assert m["trace.match_key_calls"] > 0
        assert m["kernel_optimistic.steps"] > 0
    else:
        # every committed event is pushed once and popped once
        assert m["kernel_seq.heap_ops"] == 2 * rec["committed"]
        assert m["trace.match_key_calls"] == 0
        assert m["kernel_optimistic.steps"] == 0


def test_tracing_does_not_change_the_run(traced_run):
    spec, rec = traced_run
    assert rec["digest"] == worker.reference(spec)
    assert rec["digest"] == worker.timed(spec, 1, 1)["digest"]


def test_timed_calibrates_around_each_stretch():
    spec = small_spec("phold-seq")
    rec = worker.timed(spec, 3, 2)
    assert rec["digest"] == worker.reference(spec)
    assert len(rec["setup_s"]) == 3
    assert len(rec["digest_s"]) == 2
    # before the set-ups, then after the set-ups, the run and the digests
    assert len(rec["cal_s"]) == 4 * 3
    assert all(c > 0 for c in rec["cal_s"])


def test_every_patched_attribute_is_restored():
    points = [(owner, attr) for owner, attr, _ in layertrace.PATCH_POINTS]
    originals = [layertrace.lookup(owner, attr) for owner, attr in points]
    worker.traced(small_spec("ties-opt"))
    for (owner, attr), original in zip(points, originals):
        assert layertrace.lookup(owner, attr) is original, attr


def test_a_raising_span_keeps_the_stack_balanced():
    from tiewarp import kernel_seq
    from tiewarp.timebase import OrderingMode, TimeSignature

    tracer = layertrace.LayerTracer()
    tracer.install(type(worker.build_kernel(small_spec("phold-seq")).model))
    try:
        with pytest.raises(ValueError):
            kernel_seq.derive_child_signature(TimeSignature(1.0, (1,)), -1.0, 2,
                                              OrderingMode.LEX_SEQUENCE)
    finally:
        tracer.remove()
    assert tracer.restored()
    assert tracer.calls["derive"] == 1
    assert len(tracer._stack) == 1
