"""No per-event function looks up an ``OrderingMode`` member.

A load such as ``OrderingMode.NAIVE`` goes through ``EnumType.__getattr__``
and costs about ten times an attribute of the member itself, such as
``mode.uses_draws``; ``OrderingMode.__init__`` fixes those flags once per
mode. This guard parses each function that runs once per event or per
emitted record and fails if its body names ``OrderingMode`` at all, which
covers member loads and aliases of the class alike.
"""

from __future__ import annotations

import ast
import inspect
import textwrap

import pytest

from tiewarp import kernel_optimistic, kernel_seq, models, timebase

PER_EVENT = (
    timebase.derive_child_signature,
    timebase.sort_key,
    kernel_seq.build_event,
    kernel_seq.SequentialKernel.run,
    kernel_optimistic.PeRuntime.step,
    models.PholdModel.handle,
    models.EventTiesModel.handle,
    models.StressModel.handle,
    models.MeanState.fold,
)


def ordering_mode_lines(fn) -> list[int]:
    """The source lines at which the body of ``fn`` names ``OrderingMode``;
    annotations in the signature are not read."""
    lines, first = inspect.getsourcelines(fn)
    node = ast.parse(textwrap.dedent("".join(lines))).body[0]
    return [first + name.lineno - 1 for stmt in node.body for name in ast.walk(stmt)
            if isinstance(name, ast.Name) and name.id == "OrderingMode"]


@pytest.mark.parametrize("fn", PER_EVENT, ids=lambda fn: fn.__qualname__)
def test_per_event_functions_read_mode_flags_not_enum_members(fn):
    assert ordering_mode_lines(fn) == []


def test_the_guard_sees_a_member_load():
    def lookup(mode):
        return mode is OrderingMode.NAIVE  # noqa: F821

    assert ordering_mode_lines(lookup) == [inspect.getsourcelines(lookup)[1] + 1]
