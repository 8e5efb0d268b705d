"""Every schedule of small optimistic runs, within a bound on non-default
choices: outcomes equal the sequential kernel's, and each rare path fires.

``python3 tests/schedule_enum.py`` runs the 2-LP row with no bound.
"""

import pytest

from schedule_enum import ChoiceSource, Row, enumerate_row, path_counter, schedules
from test_kernel_optimistic import StateFaultTies
from tiewarp.harness import outcome
from tiewarp.kernel_seq import SequentialKernel
from tiewarp.timebase import OrderingMode

# name: (row, schedules, paths that must fire). Rows use event-ties, chain
# 2, end 2, lex, seed 7 and a GVT round after every step unless stated.
DRAW_ROWS = {
    "2 LPs, 2 PEs": (Row(n_lps=2, workers=2, max_delay=1, bound=3),
                     383, ("anti-message rollback",)),
    "3 LPs, 3 PEs": (Row(n_lps=3, workers=3, max_delay=1, bound=3,
                         params={"remote_prob": 0.9}),
                     4355, ("anti-message rollback",)),
    "overtaking anti-messages": (Row(n_lps=2, workers=2, max_delay=4, bound=2,
                                     params={"remote_prob": 0.9}),
                                 617, ("stash insert", "stash hit")),
    "chain 3 cascades": (Row(n_lps=3, workers=2, max_delay=2, bound=2, seed=3,
                             params={"remote_prob": 0.5, "chain_length": 3}),
                         408, ("local-child cascade",)),
}


def sequential_outcome(row: Row, seed: int) -> dict:
    return outcome(SequentialKernel(row.model(), OrderingMode.from_name(row.mode),
                                    seed, seq_cap=row.seq_cap))


def without_audit(result: dict) -> dict:
    assert not result.pop("violations", 0), "the committed trace fails its audit"
    return result


@pytest.mark.parametrize("name", DRAW_ROWS)
def test_every_schedule_commits_the_sequential_outcome(name):
    row, expected, paths = DRAW_ROWS[name]
    reference = sequential_outcome(row, row.seed)
    assert "digest" in reference
    with path_counter() as counts:
        runs = enumerate_row(row)
    assert len(runs) == expected
    for choices, result in runs:
        assert without_audit(result) == reference, choices
    assert all(counts[path] > 0 for path in paths), counts


def test_every_schedule_raises_or_commits_as_the_sequential_run():
    # faults that only speculation reaches are undone; a fault that the
    # sequential run raises is raised at commit in every schedule
    row = Row(n_lps=3, workers=2, max_delay=2, bound=2, seq_cap=3,
              params={"remote_prob": 0.7, "end_time": 3}, model_class=StateFaultTies)
    raising = 0
    with path_counter() as counts:
        for seed in range(12):
            reference = sequential_outcome(row, seed)
            raising += "error" in reference
            runs = enumerate_row(row, seed)
            assert len(runs) >= 55
            for choices, result in runs:
                assert without_audit(result) == reference, (seed, choices)
    assert raising == 4
    assert counts["faulted entry undone"] > 0 and counts["fault committed"] > 0, counts


def test_every_mode_none_schedule_ends_and_passes_its_audit():
    # exhaustive at small scope for the termination that rollback_past's
    # docstring says rests on measurement in mode none
    row = Row(n_lps=3, workers=3, max_delay=1, bound=3, mode="none",
              params={"remote_prob": 0.9})
    runs = enumerate_row(row)
    assert len(runs) == 1198
    digests = {without_audit(result)["digest"] for _, result in runs}
    assert len(digests) == 18


def test_the_odometer_visits_each_bounded_choice_list_once():
    def three_binary_choices(source):
        return tuple(source.draw() % 2 for _ in range(3))

    every = [result for _, result in schedules(three_binary_choices)]
    assert sorted(every) == sorted({(a, b, c) for a in (0, 1) for b in (0, 1)
                                    for c in (0, 1)})
    bounded = [result for _, result in schedules(three_binary_choices, bound=1)]
    assert sorted(bounded) == [(0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 0)]


def test_a_draw_not_reduced_with_mod_fails_loudly():
    source = ChoiceSource([])
    int(source.draw())
    with pytest.raises(AssertionError, match="without % n"):
        source.finish()
    with pytest.raises(AssertionError, match="without % n"):
        source.draw()

