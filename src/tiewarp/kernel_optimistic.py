"""Optimistic parallel kernel with rollback, anti-messages, and GVT commit.

The kernel runs N processing elements (PEs) inside one process under a
cooperative scheduler. A chaos stream, seeded independently of the
simulation, picks which PE steps next and how long every remote message sits
in flight. That makes each run exactly reproducible from (seed, workers,
chaos seed) while still exploring genuinely adversarial interleavings:
stragglers, late anti-messages, and cascaded rollbacks all occur for real.

Correctness contract: for the draw-based ordering modes the outcome, the
committed trace bit for bit or the error raised, is the sequential kernel's,
for every worker count and every chaos seed. PEs process optimistically,
roll back on stragglers, cancel speculative sends with anti-messages, and
commit only below GVT, the global minimum signature still reachable by any
pending or in-flight event.
Rollback is per LP: each LP keeps its own processed history, so a straggler
or an anti-message undoes only the work of the LP it is addressed to (plus
whatever that work caused), never that of the other LPs on its PE. One
primitive cancels a copy of an event, for anti-messages and rollback
cascades alike. Rollback undoes strictly greater keys in every mode, so a
straggler's rollback never reaches its parent, and the run terminates
without a bound on rollbacks (see ``PeRuntime.rollback_past``).
Both kernels seed in ``run()``. Each GVT round detaches every LP's entries
below GVT and merges them by key, mode none's ties in processing order.
An error raised while an event is processed speculatively (by the model's
handler or by building a child) is recorded on that event's history entry
and raised only when the entry commits, so the run fails exactly when and
how the sequential run does.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from heapq import heappop, heappush
from operator import attrgetter

from .errors import WORD_LIMIT, CausalityViolation, UnmatchedAntiMessage, check_count
from .kernel_seq import (LpRuntime, build_event, collector_paused, make_lps,
                         seed_initial_events)
from .rngstream import DrawStream, lp_keys, mix64
from .timebase import DEFAULT_SEQUENCE_CAP, OrderingMode, format_signature
from .timebase import sort_key  # noqa: F401  (looked up by perfbench's layer tracer)
from .trace import Event, Trace

DEFAULT_GVT_INTERVAL = 4096
DEFAULT_MAX_DELAY = 4

# lp-id salt so the chaos stream can never collide with a simulation stream
_CHAOS_SALT = 0x51ED0C4A05


@dataclass(frozen=True)
class ChaosConfig:
    """Scheduling adversary knobs; zero/zero gives round-robin, no delay."""

    chaos_seed: int = 0
    max_delay: int = DEFAULT_MAX_DELAY


def _without_tracebacks(exc: Exception) -> Exception:
    """``exc``, with the traceback of it and of every exception chained to
    it, as cause or context, dropped."""
    chain, seen = [exc], set()
    while chain:
        link = chain.pop()
        if link is not None and id(link) not in seen:
            seen.add(id(link))
            link.__traceback__ = None
            chain += (link.__cause__, link.__context__)
    return exc


class ProcessedEntry:
    """One processed event and everything needed to undo it.

    ``state``, ``model_cursor`` and ``serial`` are the undo image: the
    handling LP's values, from before the event was processed, of everything
    processing can change (emits are sourced from the LP that handled the
    event, so every mutation lives on that LP, and tie-breaks are keyed by
    its serial).
    ``children`` lists the events the handler's emits built, in emit order:
    those past the end time build none. A child's PE says whether it was
    enqueued here, matched by identity, or sent, matched by content.
    ``fault`` is the exception processing raised, or None; a faulted entry
    changed nothing and sent nothing, and raises its fault when it commits.
    The fault is kept without tracebacks (``_without_tracebacks``), whose
    frames would reach back to this entry, so the two form no cycle.
    ``stamp`` is the scheduler step that processed the event. A step
    processes at most one event and the scheduler's clock only rises, so
    stamps order mode none's tied commits as they were processed.
    """

    __slots__ = ("event", "state", "model_cursor", "serial", "children", "fault", "stamp")

    def __init__(self, event: Event, rt: LpRuntime, stamp: int):
        self.event = event
        self.stamp = stamp
        self.state = rt.state
        self.model_cursor = rt.model_stream.cursor
        self.serial = rt.serial
        self.children = ()
        self.fault = None

    def restore(self, rt: LpRuntime) -> None:
        """Put the undo image back on ``rt``, the LP that handled the event."""
        rt.state = self.state
        rt.model_stream.cursor = self.model_cursor
        rt.serial = self.serial

    def take_fault(self) -> Exception:
        """The fault, released from this entry so that the frame raising it
        does not hold it through the entry."""
        fault, self.fault = self.fault, None
        return fault


class Transport:
    """Per-PE inboxes of ``(due step, send seq, event, anti)`` entries, an
    anti-message being the event itself; every send is delayed
    1..1+max_delay scheduler steps."""

    def __init__(self, n_pes: int, chaos: DrawStream, max_delay: int):
        self.inboxes: list[list] = [[] for _ in range(n_pes)]
        self.chaos = chaos
        self.max_delay = max_delay
        self.total_sent = 0

    def send(self, dest_pe: int, ev: Event, now: int, anti: bool = False) -> None:
        due = now + 1
        if self.max_delay:
            # randint(0, max_delay), without its frame
            due += self.chaos.draw() % (self.max_delay + 1)
        # the send count doubles as the tie-breaking sequence number
        heappush(self.inboxes[dest_pe], (due, self.total_sent, ev, anti))
        self.total_sent += 1

    def deliver_due(self, pe_id: int, now: int) -> list[tuple]:
        box = self.inboxes[pe_id]
        out = []
        while box and box[0][0] <= now:
            out.append(heappop(box))
        return out

    def next_due(self) -> int:
        return min(box[0][0] for box in self.inboxes if box)

    def inflight_keys(self) -> list:
        return [ev.key for box in self.inboxes for _, _, ev, _ in box]


class PeRuntime:
    """One processing element: its LPs' histories and one pending heap.

    Each LP has its own processed history in ``histories``: a stack in
    processing order, and so in ascending key order, whose top is the LP's
    clock. An event keyed below the top of its LP's history is a straggler
    and undoes only that LP's later entries; an anti-message undoes only its
    twin's LP. The pending heap, the counts and the stash are shared by the
    PE's LPs.

    A PE owns what it changes and points at nothing that owns it. It copies
    the run's shared pieces at construction (the LP runtimes, the partition
    ``lp_pe``, the transport, the model, the mode and the sequence cap) and
    keeps no reference to the kernel, so a finished kernel is a tree that
    reference counting frees. Its counters are named as the metrics they
    feed; the kernel sums them over its PEs. ``live_faults`` counts this
    PE's faulted history entries not rolled back.

    ``_cancel`` cancels one copy of an event, for an anti-message and for
    each local child of an undone entry alike, so a rollback may cascade
    through the PE's other LPs. Everything a cascade undoes was processed
    after the entry that started it, so it never reaches below an entry an
    outer rollback is still undoing.

    Annihilation is count-based and lazy, keyed by the match each event
    carries as ``Event.match`` from its creation; pending heap entries are
    ``(key, seq, event)``. An event that never leaves its PE, a seed or a
    local child, is matched by identity: its match is ``id(event)``, and only
    the very object can cancel it. An event sent through the transport is
    matched by content, ``Event.match_key()``, because its anti-message may
    overtake it and wait in the stash. ``pending_counts`` tracks copies of
    each match in the heap, ``kill_marks`` how many of those are condemned;
    condemned copies are skipped at pop time. A kill mark never outnumbers
    its heap copies, so every id keyed here belongs to an object the heap or
    a history still holds, and cannot be reused by another. ``stash`` maps
    the match key of each anti-message that arrived before its positive twin
    to the list of those anti-messages' keys. These are plain dicts that
    never hold a zero or an empty list. Whether an event has been processed
    is read off its LP's history, the only record of processed work.
    """

    def __init__(self, pe_id: int, kernel: "OptimisticKernel"):
        self.pe_id = pe_id
        self.lps, self.lp_pe, self.transport = kernel.lps, kernel.lp_pe, kernel.transport
        self.model, self.mode, self.seq_cap = kernel.model, kernel.mode, kernel.seq_cap
        # this PE's transport inbox: step delivers only when its top is due
        self.inbox = self.transport.inboxes[pe_id]
        self.pending: list = []
        self.push_seq = 0
        self.pending_counts: dict = {}
        self.kill_marks: dict = {}
        self.stash: dict = {}
        self.histories: dict[int, deque] = {}
        self.stragglers = 0
        self.rollbacks = 0
        self.rolled_back = 0
        self.antis_sent = 0
        self.annihilations = 0
        self.live_faults = 0

    @property
    def processed(self) -> list[ProcessedEntry]:
        """A snapshot of every uncommitted history entry, LP by LP."""
        return [entry for hist in self.histories.values() for entry in hist]

    # -- queue plumbing ----------------------------------------------------

    def enqueue_positive(self, ev: Event) -> None:
        m = ev.match
        stash = self.stash
        if m in stash:
            stashed = stash[m]
            stashed.pop()
            if not stashed:
                del stash[m]
            self.annihilations += 1
            return
        heappush(self.pending, (ev.key, self.push_seq, ev))
        self.push_seq += 1
        counts = self.pending_counts
        counts[m] = counts.get(m, 0) + 1

    def pop_live(self) -> tuple | None:
        """Pop the next live pending entry ``(key, seq, event)``, or None."""
        pending, counts, kill_marks = self.pending, self.pending_counts, self.kill_marks
        while pending:
            top = heappop(pending)
            m = top[2].match
            n = counts[m] - 1
            if n:
                counts[m] = n
            else:
                del counts[m]
            if m in kill_marks:
                n = kill_marks[m] - 1
                if n:
                    kill_marks[m] = n
                else:
                    del kill_marks[m]
                continue
            return top
        return None

    # -- cancellation --------------------------------------------------------

    def _cancel(self, ev: Event, now: int, anti: bool = False) -> bool:
        """Cancel one copy of ``ev``, that is, of an event with its match key.

        A live pending copy is condemned. Failing that, ``ev``'s LP is rolled
        back through its processed copy, which re-enqueues it, and that copy
        is condemned. False if neither exists.
        """
        m = ev.match
        kill_marks = self.kill_marks
        if (self.pending_counts.get(m, 0) <= kill_marks.get(m, 0)
                and not self.rollback_through(ev, now, anti)):
            return False
        kill_marks[m] = kill_marks.get(m, 0) + 1
        return True

    def receive_anti(self, ev: Event, now: int) -> None:
        if self._cancel(ev, now, anti=True):
            self.annihilations += 1
        else:
            self.stash.setdefault(ev.match, []).append(ev.key)

    # -- rollback -----------------------------------------------------------

    def _undo(self, entry: ProcessedEntry, now: int) -> None:
        """Reverse one processed event: cancel each of its local children,
        then send each remote child's anti-message, in emit order."""
        ev = entry.event
        entry.restore(self.lps[ev.dest_lp])
        self.rolled_back += 1
        if entry.fault is not None:
            self.live_faults -= 1
        lp_pe, pe_id = self.lp_pe, self.pe_id
        for child in entry.children:
            if lp_pe[child.dest_lp] == pe_id and not self._cancel(child, now):
                raise UnmatchedAntiMessage(
                    f"local child {child!r} vanished before its parent's rollback")
        for child in entry.children:
            dest_pe = lp_pe[child.dest_lp]
            if dest_pe != pe_id:
                self.transport.send(dest_pe, child, now, anti=True)
                self.antis_sent += 1
        # the undone event itself goes back to pending for re-execution
        self.enqueue_positive(ev)

    def rollback_past(self, lp_id: int, boundary_key, now: int) -> None:
        """Straggler rollback: undo every entry of the LP keyed strictly
        above the straggler's key, in every mode.

        Undoing an entry cancels only its descendants, keyed at or above it,
        so the straggler's parent, keyed at or below the straggler, is never
        undone, and the straggler in hand is never cancelled by its own
        rollback. In mode none, whose keys are bare timestamps, entries tying
        the straggler stay: ties need no order there.

        This is why a run terminates with no bound on rollbacks (Jefferson,
        "Virtual Time", 1985). In every mode but none keys are unique. A
        straggler's rollback undoes keys above the straggler's, an
        anti-message's undoes the twin it cancels and keys above it, and a
        cascade undoes descendants of undone entries, keyed at or above them.
        Every cause is pending or in flight, so keyed at or above GVT. So a
        live event processed at the GVT minimum is never undone, GVT only
        rises, and a run whose sequential trace is finite ends. Mode none
        leaves one gap: an anti-message at a tied key also undoes the entries
        tying it that were processed after its twin, at GVT itself.
        Termination there rests on measurement in ``tests/``: the mode-none
        sweep rows, the straggler fuzz and the schedule enumeration.
        """
        hist = self.histories[lp_id]
        while hist and hist[-1].event.key > boundary_key:
            self._undo(hist.pop(), now)

    def rollback_through(self, ev: Event, now: int, anti: bool = False) -> bool:
        """Undo ``ev``'s LP back through its latest processed copy of ``ev``,
        counting a rollback if ``anti`` says an anti-message caused it; False
        if there is no such copy.

        The LP's history ascends by key, so the scan from its top stops at
        the first entry keyed below ``ev``'s.
        """
        hist = self.histories[ev.dest_lp]
        key, m = ev.key, ev.match
        for depth, entry in enumerate(reversed(hist), 1):
            if entry.event.key < key:
                break
            if entry.event.match == m:
                if anti:
                    self.rollbacks += 1
                for _ in range(depth):
                    self._undo(hist.pop(), now)
                return True
        return False

    # -- forward progress ---------------------------------------------------

    def step(self, now: int) -> bool:
        """Deliver this PE's due inbox, then process its lowest live pending
        event, rolling its LP back first if the event is a straggler. True
        if it processed an event."""
        box = self.inbox
        if box and box[0][0] <= now:
            for _, _, ev, anti in self.transport.deliver_due(self.pe_id, now):
                if anti:
                    self.receive_anti(ev, now)
                else:
                    self.enqueue_positive(ev)
        top = self.pop_live()
        if top is None:
            return False
        ev = top[2]
        lp_id = ev.dest_lp
        hist = self.histories[lp_id]
        # mode NONE keys are 1-tuples, so this is the bare timestamp test
        if hist and ev.key < hist[-1].event.key:
            self.stragglers += 1
            self.rollbacks += 1
            # undoes only keys above the straggler's, never the straggler
            self.rollback_past(lp_id, ev.key, now)
        rt = self.lps[lp_id]
        entry = ProcessedEntry(ev, rt, now)
        try:
            new_state, emits = self.model.handle(rt.state, ev, rt.model_stream)
            # every child is built before any is sent, so a fault sends
            # nothing; a loop, since before Python 3.12 a comprehension is
            # a frame of its own
            children = []
            mode, seq_cap, model = self.mode, self.seq_cap, self.model
            for emit in emits:
                child = build_event(rt, ev, emit, mode, seq_cap, model)
                if child is not None:
                    children.append(child)
        except Exception as exc:
            # Speculation may reach states the sequential order never does:
            # keep the fault for commit time and leave the LP untouched.
            entry.fault = _without_tracebacks(exc)
            self.live_faults += 1
            entry.restore(rt)
        else:
            rt.state = new_state
            entry.children = children
            lp_pe, pe_id = self.lp_pe, self.pe_id
            for child in children:
                dest_pe = lp_pe[child.dest_lp]
                if dest_pe == pe_id:
                    child.match = id(child)
                    self.enqueue_positive(child)
                else:
                    child.match = child.match_key()
                    self.transport.send(dest_pe, child, now)
        hist.append(entry)
        return True

    def collect_fossils(self, gvt_key) -> list[ProcessedEntry]:
        """Detach committed-safe entries (key strictly below GVT), LP by LP."""
        out = []
        for hist in self.histories.values():
            while hist and (gvt_key is None or hist[0].event.key < gvt_key):
                out.append(hist.popleft())
        return out


class OptimisticKernel:
    """Drives the PEs to completion and merges fossils into a global trace."""

    def __init__(self, model, mode: OrderingMode, global_seed: int,
                 workers: int, chaos: ChaosConfig | None = None,
                 gvt_interval: int = DEFAULT_GVT_INTERVAL,
                 seq_cap: int = DEFAULT_SEQUENCE_CAP):
        chaos = chaos or ChaosConfig()
        check_count("workers", workers, 1)
        check_count("gvt_interval", gvt_interval, 1)
        check_count("seq_cap", seq_cap, 1)
        check_count("max_delay", chaos.max_delay, 0)
        check_count("chaos_seed", chaos.chaos_seed, 0, WORD_LIMIT)
        self.model = model
        self.mode = mode
        self.gvt_interval = gvt_interval
        self.seq_cap = seq_cap
        self.chaos = DrawStream(lp_keys(mix64(chaos.chaos_seed), _CHAOS_SALT)[1])
        self.transport = Transport(workers, self.chaos, chaos.max_delay)
        # the owning PE of each LP id: the one statement of the partition
        self.lp_pe = [lp_id % workers for lp_id in range(model.n_lps)]
        self.lps = make_lps(model, global_seed, self.lp_pe)
        self.pes = [PeRuntime(i, self) for i in range(workers)]
        for rt in self.lps:
            self.pes[rt.pe_id].histories[rt.lp_id] = deque()
        self.global_processed = 0
        self.gvt_rounds = 0
        self._last_gvt_mark = 0
        self._last_commit_key = None
        # a GVT round's sort key: only mode none's keys tie, so only it needs the stamp
        self._commit_order = (attrgetter("event.key", "stamp") if mode is OrderingMode.NONE
                              else attrgetter("event.key"))

    # -- GVT and commitment ---------------------------------------------------

    def _compute_gvt(self):
        """Exact minimum over pending and in-flight keys.

        A pending heap's minimum is its top. Condemned-but-unpopped pending
        entries, a condemned straggler among them, are included; that only
        lowers the estimate, which is safe.
        Stashed anti-messages need no term. One is stashed only when it
        overtook its positive twin, and that twin cannot have committed: its
        parent, uncommitted since it is being undone, sorts at or before it
        (``build_event`` refuses any other child). So the twin is still in
        transport, with the same key, and counted there.
        Returns None when nothing is reachable, meaning GVT is past the end
        of the run.
        """
        keys = self.transport.inflight_keys()
        for pe in self.pes:
            if pe.pending:
                keys.append(pe.pending[0][0])
        return min(keys) if keys else None

    def _commit_epoch(self, committed: list[Event]) -> None:
        """Commit every history entry below GVT; all of them when GVT is None."""
        self.gvt_rounds += 1
        self._last_gvt_mark = self.global_processed
        gvt_key = self._compute_gvt()
        batch = []
        for pe in self.pes:
            batch.extend(pe.collect_fossils(gvt_key))
        batch.sort(key=self._commit_order)
        after = self.mode.after
        last = self._last_commit_key
        try:
            for entry in batch:
                ev = entry.event
                key = ev.key
                if last is not None and not after(key, last):
                    raise CausalityViolation(
                        f"commit order regression at {format_signature(ev)}")
                if entry.fault is not None:
                    # the sequential run raises here too, at the same event
                    raise entry.take_fault()
                last = key
                committed.append(ev)
        finally:
            self._last_commit_key = last
        for pe in self.pes:
            for m, stashed in pe.stash.items():
                if gvt_key is None or stashed[0] < gvt_key:
                    raise UnmatchedAntiMessage(
                        f"anti-message for {m} fell below GVT without ever "
                        f"meeting its positive twin")

    # -- main loop ------------------------------------------------------------

    @collector_paused
    def run(self) -> Trace:
        """Seed, then drive the PEs to the end; the committed trace.

        As in the sequential kernel, the run pauses the cyclic garbage
        collector and restores its state on return or raise
        (``kernel_seq.collector_paused``): on input 0:0 of the ``ties-opt``
        benchmark it made 52 gen-0 and 4 gen-1 passes, 7% of the run's
        time, and freed nothing. Cyclic garbage that a handler builds waits
        until ``run`` returns. The kernel itself is a tree, since no PE
        points back at it, and a faulted entry keeps its fault without
        tracebacks and releases it before the fault is raised: reference
        counting frees a dropped kernel and its trace, or the error it
        raised.
        """
        self._seed()
        return self._drive()

    def _seed(self) -> None:
        for ev in seed_initial_events(self.model, self.lps, self.mode, self.seq_cap):
            # a seed is enqueued on its PE directly, never sent
            ev.match = id(ev)
            self.pes[self.lp_pe[ev.dest_lp]].enqueue_positive(ev)

    def _drive(self) -> Trace:
        """Step PEs until every pending heap and inbox is empty, then commit.

        Each step, a PE is runnable if its pending heap is non-empty or its
        inbox holds a due message. The chaos stream picks one of the
        runnable PEs, in PE order, with ``draw() % len(runnable)``; when none
        is runnable, the clock jumps to the next due message. ``busy`` counts
        the PEs whose pending heap is non-empty. When it counts them all,
        every PE is runnable, so ``self.pes`` itself is the runnable list:
        the same PEs in the same order, so the same chaos draws pick the
        same PEs. The count stays exact because a step changes only its own
        PE's pending heap (its sends go to the inboxes), and it is taken
        here because a caller may have stepped PEs before.

        ``global_processed`` counts the steps that processed an event.
        ``faults`` says whether any PE holds a faulted entry not rolled
        back; while one does, a GVT round runs after every step, so a fault
        raises as soon as it commits. It is exact for the same reason:
        a step changes only its own PE's ``live_faults``.
        """
        committed: list[Event] = []
        step = 0
        pes, transport = self.pes, self.transport
        n_pes, gvt_interval = len(pes), self.gvt_interval
        pes_and_inboxes = list(zip(pes, transport.inboxes))
        busy = sum(1 for pe in pes if pe.pending)
        faults = any(pe.live_faults for pe in pes)
        # one PE leaves the scheduler nothing to choose, so it draws nothing
        draw = self.chaos.draw if n_pes > 1 else None
        while True:
            if busy == n_pes:
                runnable = pes
            else:
                runnable = [pe for pe, box in pes_and_inboxes
                            if pe.pending or (box and box[0][0] <= step)]
                if not runnable:
                    if not any(transport.inboxes):
                        break
                    step = transport.next_due()
                    continue
            pe = runnable[draw() % len(runnable)] if draw else runnable[0]
            if pe.pending:
                busy -= 1
            self.global_processed += pe.step(step)
            if pe.pending:
                busy += 1
            step += 1
            faults = pe.live_faults or (faults and any(p.live_faults for p in pes))
            if faults or self.global_processed - self._last_gvt_mark >= gvt_interval:
                self._commit_epoch(committed)
        self._commit_epoch(committed)
        self._check_quiescent()
        finals = {rt.lp_id: self.model.final_value(rt.state) for rt in self.lps}
        return Trace(committed=committed, final_states=finals)

    def _check_quiescent(self) -> None:
        # the loop ends with every inbox and pending heap empty, and the final
        # commit raises for any stashed anti-message: only kill marks are left
        for pe in self.pes:
            if pe.kill_marks:
                raise UnmatchedAntiMessage(
                    f"PE {pe.pe_id} holds kill marks with no matching events")

    def metrics(self) -> dict:
        processed = self.global_processed
        counts = {name: sum(getattr(pe, name) for pe in self.pes)
                  for name in ("rolled_back", "rollbacks", "stragglers",
                               "antis_sent", "annihilations")}
        committed = processed - counts["rolled_back"]
        return {
            "workers": len(self.pes),
            "processed": processed,
            **counts,
            "messages_sent": self.transport.total_sent,
            "gvt_rounds": self.gvt_rounds,
            "efficiency": committed / processed if processed else 1.0,
        }
