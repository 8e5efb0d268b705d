"""Every schedule of a small optimistic run, enumerated rather than sampled.

The chaos stream is the optimistic kernel's only source of schedule
nondeterminism, and every choice it makes is ``draw() % n``: the
scheduler's pick among ``n`` runnable PEs, and a send's delay in
``0..max_delay``. ``ChoiceSource`` stands in for that stream. Its
``draw()`` hands out a ``Choice``, an ``int`` whose ``% n`` records ``n``,
the arity of the choice point, and returns the choice that the replayed
prefix dictates, 0 past its end. ``schedules`` is a depth-first odometer
over those choice lists. With a bound it visits only the schedules that
make at most that many non-default (non-zero) choices: iterative context
bounding (Musuvathi and Qadeer, PLDI 2007).

``path_counter`` counts the optimistic kernel's rare paths while it is
installed, by wrapping ``PeRuntime`` and ``OptimisticKernel`` methods.

Mode none leaves ties unordered, so its runs may differ, but each must be
some execution: a sequential run that processes the tied events in some
order. ``tie_order_digests`` enumerates every such order with the same
odometer: at each pop, ``draw() % k`` picks one of the ``k`` pending events
at the minimum timestamp. ``replay`` walks a committed trace through the
same sequential loop, ``sequential_none``.

Run as a script, it enumerates every schedule of one small run, with no
bound, in mode lex and in mode none, and prints what it saw::

    python3 tests/schedule_enum.py
"""

from __future__ import annotations

import sys
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from tiewarp.harness import audit_trace, outcome  # noqa: E402
from tiewarp.kernel_optimistic import ChaosConfig, OptimisticKernel, PeRuntime  # noqa: E402
from tiewarp.kernel_seq import (SequentialKernel, build_event, make_lps,  # noqa: E402
                                seed_initial_events)
from tiewarp.models import EventTiesModel  # noqa: E402
from tiewarp.timebase import DEFAULT_SEQUENCE_CAP, OrderingMode  # noqa: E402
from tiewarp.trace import Trace  # noqa: E402

# a schedule that makes more choices than this is taken for a livelock
MAX_CHOICES = 10_000


class Choice(int):
    """One draw of a ``ChoiceSource``; reducing it with ``%`` makes the choice."""

    def __mod__(self, n):
        return self.source.choose(n)


class ChoiceSource:
    """A chaos stream that replays ``prefix``, then makes default choices.

    ``choices`` and ``arities`` record each choice point of the run, in
    order. Every draw must be reduced with ``%`` before the next one, and
    by the end of the run: a draw used any other way would make a choice
    the odometer never sees.
    """

    def __init__(self, prefix: list[int]):
        self.prefix = prefix
        self.choices: list[int] = []
        self.arities: list[int] = []
        self.unreduced = False

    def draw(self) -> Choice:
        assert not self.unreduced, "a chaos draw was used without % n"
        assert len(self.choices) < MAX_CHOICES, "schedule too long: a livelock?"
        self.unreduced = True
        choice = Choice(0)
        choice.source = self
        return choice

    def choose(self, n: int) -> int:
        assert self.unreduced, "a chaos draw was reduced twice"
        self.unreduced = False
        i = len(self.choices)
        c = self.prefix[i] if i < len(self.prefix) else 0
        assert 0 <= c < n, f"choice point {i} has arity {n} on replay"
        self.choices.append(c)
        self.arities.append(n)
        return c

    def finish(self) -> None:
        assert not self.unreduced, "a chaos draw was used without % n"


def next_prefix(choices: list[int], arities: list[int], bound: int | None):
    """The odometer's next prefix after the schedule ``choices``: its last
    choice that can still grow, within ``bound`` non-default choices, grown
    by one; None when there is none."""
    nondefault = sum(1 for c in choices if c)
    for i in range(len(choices) - 1, -1, -1):
        c = choices[i]
        if c:
            nondefault -= 1
        # nondefault now counts choices[:i]; choice i becomes non-default
        if c + 1 < arities[i] and (bound is None or nondefault < bound):
            return choices[:i] + [c + 1]
    return None


def schedules(run, bound: int | None = None):
    """Yield ``(choices, run(source))`` for every schedule, depth first.

    ``run`` runs one schedule with ``source`` as its chaos stream and
    returns what the caller wants to compare.
    """
    prefix: list[int] = []
    while prefix is not None:
        source = ChoiceSource(prefix)
        result = run(source)
        source.finish()
        yield source.choices, result
        prefix = next_prefix(source.choices, source.arities, bound)


@contextmanager
def path_counter():
    """Count the optimistic kernel's rare paths while the block runs.

    - ``stash insert``: an anti-message overtook its twin and waits;
    - ``stash hit``: a positive event met its waiting anti-message;
    - ``anti-message rollback``: an anti-message undid its processed twin;
    - ``local-child cascade``: undoing an entry undid its processed local
      child;
    - ``faulted entry undone``: a rollback undid an entry whose processing
      raised;
    - ``fault committed``: a GVT round raised a committed entry's fault.
    """
    counts = Counter()
    originals = {name: vars(PeRuntime)[name] for name in
                 ("receive_anti", "enqueue_positive", "rollback_through", "_undo")}
    commit_epoch = OptimisticKernel._commit_epoch

    def receive_anti(pe, ev, now):
        before = len(pe.stash.get(ev.match, ()))
        originals["receive_anti"](pe, ev, now)
        counts["stash insert"] += len(pe.stash.get(ev.match, ())) > before

    def enqueue_positive(pe, ev):
        counts["stash hit"] += ev.match in pe.stash
        originals["enqueue_positive"](pe, ev)

    def rollback_through(pe, ev, now, anti=False):
        undone = originals["rollback_through"](pe, ev, now, anti)
        if undone:
            counts["anti-message rollback" if anti else "local-child cascade"] += 1
        return undone

    def undo(pe, entry, now):
        counts["faulted entry undone"] += entry.fault is not None
        originals["_undo"](pe, entry, now)

    def commit(kernel, committed):
        try:
            commit_epoch(kernel, committed)
        except Exception:
            counts["fault committed"] += 1
            raise

    wrappers = {"receive_anti": receive_anti, "enqueue_positive": enqueue_positive,
                "rollback_through": rollback_through, "_undo": undo}
    for name, wrapper in wrappers.items():
        setattr(PeRuntime, name, wrapper)
    OptimisticKernel._commit_epoch = commit
    try:
        yield counts
    finally:
        for name, original in originals.items():
            setattr(PeRuntime, name, original)
        OptimisticKernel._commit_epoch = commit_epoch


@dataclass(frozen=True)
class Row:
    """One enumerated run: ``event-ties`` (or ``model_class``) with these
    parameters, chain 2 and end 2 unless ``params`` says otherwise."""

    n_lps: int
    workers: int
    max_delay: int
    bound: int | None
    params: dict = field(default_factory=dict)
    mode: str = "lex"
    seed: int = 7
    seq_cap: int = 64
    model_class: type | None = None

    def model(self):
        params = {"chain_length": 2, "end_time": 2.0, **self.params}
        return (self.model_class or EventTiesModel)(n_lps=self.n_lps, **params)


def enumerate_row(row: Row, seed: int | None = None) -> list:
    """``(choices, outcome)`` of every schedule of ``row``, at ``seed`` if
    given, with a GVT round after every step: each outcome is
    ``harness.outcome``'s dict, with the number of ``audit_trace``
    violations of the committed trace under ``"violations"`` when the run
    ended."""
    model = row.model()
    mode = OrderingMode.from_name(row.mode)
    seed = row.seed if seed is None else seed

    def run(source):
        kernel = OptimisticKernel(model, mode, seed, row.workers,
                                  chaos=ChaosConfig(0, row.max_delay),
                                  gvt_interval=1, seq_cap=row.seq_cap)
        # _drive binds chaos.draw when it starts, so this precedes run()
        kernel.chaos = kernel.transport.chaos = source
        try:
            trace = kernel.run()
        except Exception as exc:
            return {"error": f"{type(exc).__name__}: {exc}"}
        return {"digest": trace.digest(),
                "violations": len(audit_trace(trace, row.mode)["violations"])}

    return list(schedules(run, row.bound))


def sequential_none(model, seed: int, pick) -> Trace:
    """A sequential mode-none run in which ``pick(tied)`` returns the event
    processed next, one of ``tied``, the pending events at the minimum
    timestamp."""
    mode = OrderingMode.NONE
    lps = make_lps(model, seed)
    pending = seed_initial_events(model, lps, mode, DEFAULT_SEQUENCE_CAP)
    committed = []
    while pending:
        t = min(ev.timestamp for ev in pending)
        ev = pick([ev for ev in pending if ev.timestamp == t])
        pending.remove(ev)
        rt = lps[ev.dest_lp]
        rt.state, emits = model.handle(rt.state, ev, rt.model_stream)
        committed.append(ev)
        for emit in emits:
            child = build_event(rt, ev, emit, mode, DEFAULT_SEQUENCE_CAP, model)
            if child is not None:
                pending.append(child)
    return Trace(committed=committed,
                 final_states={rt.lp_id: model.final_value(rt.state) for rt in lps})


def tie_order_digests(row: Row) -> list[str]:
    """The digest of every sequential tie order of ``row``'s model, with no
    bound: every outcome a mode-none run of it can show."""
    model = row.model()

    def run(source):
        return sequential_none(model, row.seed,
                               lambda tied: tied[source.draw() % len(tied)]).digest()

    return [digest for _, digest in schedules(run)]


def replay(model, seed: int, trace: Trace) -> Trace:
    """Process ``trace``'s committed events, in its order, in a sequential
    mode-none run; each must be pending at the minimum timestamp when its
    turn comes, matched on its content (``Event.match_key``). The result is
    that run's trace, whose digest equals ``trace``'s exactly when the
    listed order is an execution."""
    listed = iter(trace.committed)

    def pick(tied):
        ev = next(listed, None)
        assert ev is not None, "events still pending past the trace's end"
        want = ev.match_key()
        for candidate in tied:
            if candidate.match_key() == want:
                return candidate
        raise AssertionError(f"{ev!r} is not pending at the minimum timestamp")

    return sequential_none(model, seed, pick)


def fewest_choices(choice_lists: list) -> list:
    """The choice list with the fewest non-default choices, then the shortest."""
    return min(choice_lists, key=lambda choices: (sum(map(bool, choices)), len(choices)))


# 2 LPs, 2 PEs, max_delay 1: small enough to enumerate without a bound
UNBOUNDED = Row(n_lps=2, workers=2, max_delay=1, bound=None)


def enumerate_lex(row: Row) -> bool:
    """Every schedule of ``row`` commits the sequential outcome."""
    reference = outcome(SequentialKernel(row.model(), OrderingMode.from_name(row.mode),
                                         row.seed))
    start = time.process_time()
    with path_counter() as counts:
        runs = enumerate_row(row)
    cpu = time.process_time() - start
    outcomes = Counter(repr(result) for _, result in runs)
    diverged = [choices for choices, result in runs
                if {k: v for k, v in result.items() if k != "violations"} != reference
                or result.get("violations")]
    print(f"row: event-ties, {row.n_lps} LPs, chain 2, end 2, {row.mode}, seed {row.seed}, "
          f"{row.workers} PEs, max_delay {row.max_delay}, gvt_interval 1, no bound")
    print(f"schedules: {len(runs)}")
    print(f"distinct outcomes: {len(outcomes)}")
    print(f"cpu: {cpu:.1f} s")
    for path in ("stash insert", "stash hit", "anti-message rollback",
                 "local-child cascade", "faulted entry undone", "fault committed"):
        print(f"{path}: {counts[path]}")
    if diverged:
        print(f"DIVERGED in {len(diverged)} schedules; fewest non-default choices: "
              f"{fewest_choices(diverged)}")
        return False
    print("every schedule committed the sequential outcome")
    return True


def enumerate_none(row: Row) -> bool:
    """Every schedule of ``row`` in mode none commits a sequential tie order."""
    row = replace(row, mode="none")
    start = time.process_time()
    orders = tie_order_digests(row)
    runs = enumerate_row(row)
    cpu = time.process_time() - start
    allowed = set(orders)
    outcomes = Counter(repr(result) for _, result in runs)
    outside = [choices for choices, result in runs
               if result.get("digest") not in allowed or result.get("violations")]
    print("row: the same in mode none")
    print(f"sequential tie orders: {len(orders)} ({len(allowed)} distinct outcomes)")
    print(f"schedules: {len(runs)}")
    print(f"distinct outcomes: {len(outcomes)}")
    print(f"cpu: {cpu:.1f} s")
    if outside:
        print(f"OUTSIDE the tie orders in {len(outside)} schedules; "
              f"fewest non-default choices: {fewest_choices(outside)}")
        return False
    print("every schedule committed a sequential tie order")
    return True


def main() -> int:
    lex = enumerate_lex(UNBOUNDED)
    none = enumerate_none(UNBOUNDED)
    return 0 if lex and none else 1


if __name__ == "__main__":
    sys.exit(main())
