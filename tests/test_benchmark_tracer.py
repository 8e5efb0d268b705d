"""The benchmark's layer tracer still finds every name it wraps in ``src``.

``perfbench/layertrace.py`` wraps program functions by name, from outside
the package. A refactor that renames or drops one of them breaks the
benchmark's per-layer metrics; this guard fails with it, in the program's
own test suite.
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import layertrace  # noqa: E402
import worker  # noqa: E402
from tiewarp.harness import RunSpec  # noqa: E402
from workloads import spec_fields  # noqa: E402


@pytest.mark.parametrize("owner, attr, span", layertrace.PATCH_POINTS)
def test_every_patch_point_resolves(owner, attr, span):
    assert callable(layertrace.lookup(owner, attr)), span


# the gated workloads, scaled down to a fraction of a second each
SMALL = {"phold-seq": {"end_time": 4.0},
         "ties-opt": {"end_time": 4.0, "n_lps": 64}}


@pytest.mark.parametrize("workload", SMALL)
def test_a_small_traced_run_keeps_the_tracer_identities(workload):
    spec = dataclasses.replace(RunSpec(**spec_fields(workload, 0, 0)), **SMALL[workload])
    rec = worker.traced(spec)
    metrics = rec["metrics"]
    assert rec["violations"] == []
    # lex derives one signature per built event, through kernel_seq's binding
    assert metrics["timebase.derive_calls"] == metrics["kernel_seq.build_event_calls"] > 0
