"""Optimistic parallel kernel with rollback, anti-messages, and GVT commit.

The kernel runs N processing elements (PEs) inside one process under a
cooperative scheduler. A chaos stream, seeded independently of the
simulation, picks which PE steps next and how long every remote message sits
in flight. That makes each run exactly reproducible from (seed, workers,
chaos seed) while still exploring genuinely adversarial interleavings:
stragglers, late anti-messages, and cascaded rollbacks all occur for real.

Correctness contract: for the draw-based ordering modes the committed trace
is bit-identical to the sequential kernel's, for every worker count and
every chaos seed. PEs process optimistically, roll back on stragglers,
cancel speculative sends with anti-messages, and commit only below GVT, the
global minimum signature still reachable by any pending or in-flight event.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from heapq import heappop, heappush

from .errors import CausalityViolation, ConfigError, LivelockDetected, UnmatchedAntiMessage
from .kernel_seq import build_event, make_lps, seed_initial_events
from .rngstream import DrawStream, Purpose, derive_stream_key
from .timebase import DEFAULT_SEQUENCE_CAP, OrderingMode, format_signature
from .timebase import sort_key  # noqa: F401  (looked up by perfbench's layer tracer)
from .trace import Event, Trace

DEFAULT_GVT_INTERVAL = 4096
DEFAULT_MAX_DELAY = 4
DEFAULT_LIVELOCK_BOUND = 64

# lp-id salt so the chaos stream can never collide with a simulation stream
_CHAOS_SALT = 0x51ED0C4A05


@dataclass(frozen=True)
class ChaosConfig:
    """Scheduling adversary knobs; zero/zero gives round-robin, no delay."""

    chaos_seed: int = 0
    max_delay: int = DEFAULT_MAX_DELAY


class ProcessedEntry:
    """Everything needed to undo one processed event.

    Pre-images cover every mutation processing makes: the destination LP's
    state, both stream cursors, and its serial counter (emits are sourced
    from the LP that handled the event, so all four live on one LP).
    """

    __slots__ = ("event", "pre_state", "pre_tb_cursor", "pre_model_cursor",
                 "pre_serial", "local_children", "remote_children")

    def __init__(self, event, pre_state, pre_tb_cursor, pre_model_cursor,
                 pre_serial, local_children, remote_children):
        self.event = event
        self.pre_state = pre_state
        self.pre_tb_cursor = pre_tb_cursor
        self.pre_model_cursor = pre_model_cursor
        self.pre_serial = pre_serial
        self.local_children = local_children
        self.remote_children = remote_children


class Transport:
    """Per-PE inboxes; every send is delayed 1..1+max_delay scheduler steps."""

    def __init__(self, n_pes: int, chaos: DrawStream, max_delay: int):
        self.inboxes: list[list] = [[] for _ in range(n_pes)]
        self.chaos = chaos
        self.max_delay = max_delay
        self.seq = 0
        self.in_flight = 0
        self.total_sent = 0

    def send(self, dest_pe: int, msg: Event, now: int) -> None:
        delay = self.chaos.randint(0, self.max_delay) if self.max_delay > 0 else 0
        heappush(self.inboxes[dest_pe], (now + 1 + delay, self.seq, msg))
        self.seq += 1
        self.in_flight += 1
        self.total_sent += 1

    def has_due(self, pe_id: int, now: int) -> bool:
        box = self.inboxes[pe_id]
        return bool(box) and box[0][0] <= now

    def deliver_due(self, pe_id: int, now: int) -> list[Event]:
        box = self.inboxes[pe_id]
        out = []
        while box and box[0][0] <= now:
            out.append(heappop(box)[2])
            self.in_flight -= 1
        return out

    def next_due(self) -> int:
        return min(box[0][0] for box in self.inboxes if box)

    def inflight_keys(self) -> list:
        return [msg.key for box in self.inboxes for _, _, msg in box]


class PeRuntime:
    """One processing element: its LPs, pending heap, and processed history.

    Annihilation is count-based and lazy. ``pending_counts`` tracks copies of
    each event identity in the heap, ``kill_marks`` how many of those are
    condemned; condemned copies are skipped at pop time. ``stash`` holds
    anti-messages that arrived before their positive twin.
    """

    def __init__(self, pe_id: int, kernel: "OptimisticKernel"):
        self.pe_id = pe_id
        self.kernel = kernel
        self.lps = {}
        self.pending: list = []
        self.push_seq = 0
        self.pending_counts: Counter = Counter()
        self.kill_marks: Counter = Counter()
        self.stash: Counter = Counter()
        self.stash_keys: dict = {}
        self.processed: deque = deque()
        self.processed_ids: Counter = Counter()
        self.clock_key = None
        self.fossil_count = 0
        self.rollback_counts: Counter = Counter()
        self.total_processed = 0
        self.stragglers = 0
        self.rollbacks = 0
        self.rolled_back_events = 0
        self.antis_sent = 0

    # -- queue plumbing ----------------------------------------------------

    def enqueue_positive(self, ev: Event) -> None:
        m = ev.match_key()
        if self.stash[m] > 0:
            self.stash[m] -= 1
            if self.stash[m] == 0:
                del self.stash[m]
                self.stash_keys.pop(m, None)
            self.kernel.annihilations += 1
            return
        heappush(self.pending, (ev.key, self.push_seq, ev))
        self.push_seq += 1
        self.pending_counts[m] += 1

    def pop_live(self) -> Event | None:
        while self.pending:
            ev = heappop(self.pending)[2]
            m = ev.match_key()
            self.pending_counts[m] -= 1
            if self.pending_counts[m] == 0:
                del self.pending_counts[m]
            if self.kill_marks[m] > 0:
                self.kill_marks[m] -= 1
                if self.kill_marks[m] == 0:
                    del self.kill_marks[m]
                continue
            return ev
        return None

    def has_work(self, now: int) -> bool:
        return bool(self.pending) or self.kernel.transport.has_due(self.pe_id, now)

    # -- anti-message handling ----------------------------------------------

    def receive_anti(self, anti: Event, now: int) -> None:
        m = anti.match_key()
        if self.pending_counts[m] - self.kill_marks[m] > 0:
            self.kill_marks[m] += 1
            self.kernel.annihilations += 1
        elif self.processed_ids[m] > 0:
            # The twin already executed speculatively: rewind through it,
            # which re-enqueues it, then condemn the re-enqueued copy.
            self._count_rollback(anti)
            self.rollback_through(m, now)
            self.kill_marks[m] += 1
            self.kernel.annihilations += 1
        else:
            self.stash[m] += 1
            self.stash_keys[m] = anti.key

    # -- rollback -----------------------------------------------------------

    def _count_rollback(self, cause: Event) -> None:
        self.rollbacks += 1
        sig = cause.signature
        # not cause.key: in mode NONE that is the bare timestamp, which would
        # merge distinct events into one count
        cause_id = (sig.timestamp, sig.tiebreak, cause.source_lp, cause.serial)
        count = self.rollback_counts[cause_id] + 1
        self.rollback_counts[cause_id] = count
        if count > self.kernel.livelock_bound:
            tag = f"{format_signature(sig)}/{cause.source_lp}#{cause.serial}"
            raise LivelockDetected(
                f"PE {self.pe_id} rolled back {count} times "
                f"for the same event {tag}; the ordering scheme is not making "
                f"progress", signature=tag, count=count)

    def _undo(self, entry: ProcessedEntry, now: int, in_hand: Event | None) -> bool:
        """Reverse one processed event; True if it condemned the in-hand event."""
        ev = entry.event
        rt = self.lps[ev.dest_lp]
        rt.state = entry.pre_state
        rt.tiebreak_stream.restore(entry.pre_tb_cursor)
        rt.model_stream.restore(entry.pre_model_cursor)
        rt.serial = entry.pre_serial
        self.processed_ids[ev.match_key()] -= 1
        self.rolled_back_events += 1
        killed_in_hand = False
        for child in entry.local_children:
            cm = child.match_key()
            if in_hand is not None and not killed_in_hand and cm == in_hand.match_key():
                killed_in_hand = True
            elif self.pending_counts[cm] - self.kill_marks[cm] > 0:
                self.kill_marks[cm] += 1
            else:
                raise UnmatchedAntiMessage(
                    f"local child {child!r} vanished before its parent's rollback")
        for dest_pe, child in entry.remote_children:
            self.kernel.transport.send(dest_pe, child.as_anti(), now)
            self.antis_sent += 1
        # the undone event itself goes back to pending for re-execution
        self.enqueue_positive(ev)
        return killed_in_hand

    def rollback_past(self, boundary_key, now: int, in_hand: Event | None) -> bool:
        """Straggler rollback: undo every entry the straggler must precede.

        In draw-based and biased modes that is every entry strictly above the
        straggler's key. In the no-tie-break mode the boundary is the bare
        timestamp and entries tying it are rolled back too, conservatively,
        because without tie-breaks there is no defensible order among them.
        """
        mode_none = self.kernel.mode is OrderingMode.NONE
        killed = False
        while self.processed:
            top = self.processed[-1].event.key
            if mode_none:
                if top[0] < boundary_key[0]:
                    break
            elif top <= boundary_key:
                break
            killed |= self._undo(self.processed.pop(), now, in_hand)
        self.clock_key = self.processed[-1].event.key if self.processed else None
        return killed

    def rollback_through(self, match_key, now: int) -> None:
        """Anti-message rollback: undo back through the latest matching twin."""
        while self.processed:
            entry = self.processed.pop()
            hit = entry.event.match_key() == match_key
            self._undo(entry, now, None)
            if hit:
                break
        self.clock_key = self.processed[-1].event.key if self.processed else None

    # -- forward progress ---------------------------------------------------

    def is_straggler(self, key) -> bool:
        # mode NONE keys are 1-tuples, so this is the bare timestamp test
        return self.clock_key is not None and key < self.clock_key

    def step(self, now: int) -> bool:
        delivered = self.kernel.transport.deliver_due(self.pe_id, now)
        for msg in delivered:
            if msg.anti:
                self.receive_anti(msg, now)
            else:
                self.enqueue_positive(msg)
        ev = self.pop_live()
        if ev is None:
            return bool(delivered)
        if self.is_straggler(ev.key):
            self.stragglers += 1
            self._count_rollback(ev)
            if self.rollback_past(ev.key, now, ev):
                # the straggler was a speculative child of an undone event
                return True
        self._process(ev, now)
        return True

    def _process(self, ev: Event, now: int) -> None:
        kernel = self.kernel
        rt = self.lps[ev.dest_lp]
        pre = (rt.state, rt.tiebreak_stream.snapshot(),
               rt.model_stream.snapshot(), rt.serial)
        new_state, emits = kernel.model.handle(rt.state, ev, rt.model_stream)
        rt.state = new_state
        local_children: list[Event] = []
        remote_children: list[tuple[int, Event]] = []
        for emit in emits:
            child = build_event(rt, ev, emit, kernel.mode, kernel.seq_cap,
                                kernel.naive)
            if child.signature.timestamp > kernel.end_time:
                continue
            dest_pe = kernel.pe_of_lp(child.dest_lp)
            if dest_pe == self.pe_id:
                self.enqueue_positive(child)
                local_children.append(child)
            else:
                kernel.transport.send(dest_pe, child, now)
                remote_children.append((dest_pe, child))
        self.processed.append(ProcessedEntry(ev, *pre,
                                             local_children, remote_children))
        self.processed_ids[ev.match_key()] += 1
        self.clock_key = ev.key
        self.total_processed += 1
        kernel.global_processed += 1

    def collect_fossils(self, gvt_key) -> list[tuple]:
        """Detach committed-safe entries (key strictly below GVT) in order."""
        out = []
        while self.processed:
            entry = self.processed[0]
            ev = entry.event
            if gvt_key is not None and not ev.key < gvt_key:
                break
            self.processed.popleft()
            self.processed_ids[ev.match_key()] -= 1
            out.append((ev.key, self.pe_id, self.fossil_count, ev))
            self.fossil_count += 1
        return out


class OptimisticKernel:
    """Drives the PEs to completion and merges fossils into a global trace."""

    def __init__(self, model, mode: OrderingMode, global_seed: int,
                 n_workers: int, chaos: ChaosConfig | None = None,
                 gvt_interval: int = DEFAULT_GVT_INTERVAL,
                 seq_cap: int = DEFAULT_SEQUENCE_CAP, naive: bool = False,
                 livelock_bound: int = DEFAULT_LIVELOCK_BOUND):
        if n_workers < 1:
            raise ConfigError("n_workers must be >= 1")
        if gvt_interval < 1:
            raise ConfigError("gvt_interval must be >= 1")
        chaos = chaos or ChaosConfig()
        if chaos.max_delay < 0:
            raise ConfigError("max_delay must be >= 0")
        self.model = model
        self.mode = mode
        self.global_seed = global_seed
        self.n_workers = n_workers
        self.chaos_cfg = chaos
        self.gvt_interval = gvt_interval
        self.seq_cap = seq_cap
        self.naive = naive
        self.livelock_bound = livelock_bound
        self.end_time = model.end_time
        self.chaos = DrawStream(derive_stream_key(chaos.chaos_seed, _CHAOS_SALT,
                                                  Purpose.MODEL))
        self.transport = Transport(n_workers, self.chaos, chaos.max_delay)
        self.pes = [PeRuntime(i, self) for i in range(n_workers)]
        lps = make_lps(model, global_seed, self.pe_of_lp)
        for rt in lps:
            self.pes[rt.pe_id].lps[rt.lp_id] = rt
        self._all_lps = lps
        self.global_processed = 0
        self.annihilations = 0
        self.gvt_rounds = 0
        self._last_gvt_mark = 0
        self._last_commit_key = None
        for ev in seed_initial_events(model, lps, mode, seq_cap):
            if ev.signature.timestamp > self.end_time:
                continue
            self.pes[self.pe_of_lp(ev.dest_lp)].enqueue_positive(ev)

    def pe_of_lp(self, lp_id: int) -> int:
        return lp_id % self.n_workers

    # -- GVT and commitment ---------------------------------------------------

    def _compute_gvt(self):
        """Exact minimum over pending, in-flight, and stashed keys.

        Condemned-but-unpopped pending entries are included; that only lowers
        the estimate, which is safe. Returns None when nothing is reachable,
        meaning GVT is past the end of the run.
        """
        keys = self.transport.inflight_keys()
        for pe in self.pes:
            for key, _, _ in pe.pending:
                keys.append(key)
            keys.extend(pe.stash_keys.values())
        return min(keys) if keys else None

    def _commit_epoch(self, committed: list[Event], final: bool) -> None:
        self.gvt_rounds += 1
        self._last_gvt_mark = self.global_processed
        gvt_key = None if final else self._compute_gvt()
        if not final and gvt_key is None:
            return
        batches = []
        for pe in self.pes:
            batches.extend(pe.collect_fossils(gvt_key))
        batches.sort(key=lambda item: (item[0], item[1], item[2]))
        for key, _, _, ev in batches:
            if self._last_commit_key is not None:
                if self.mode is OrderingMode.NONE:
                    ok = key[0] >= self._last_commit_key[0]
                else:
                    ok = key > self._last_commit_key
                if not ok:
                    raise CausalityViolation(
                        f"commit order regression at "
                        f"{format_signature(ev.signature)}",
                        event=repr(ev), frontier=repr(self._last_commit_key))
            self._last_commit_key = key
            committed.append(ev)
        for pe in self.pes:
            for m, k in pe.stash_keys.items():
                if gvt_key is None or k < gvt_key:
                    raise UnmatchedAntiMessage(
                        f"anti-message for {m} fell below GVT without ever "
                        f"meeting its positive twin")

    # -- main loop ------------------------------------------------------------

    def run(self) -> Trace:
        committed: list[Event] = []
        step = 0
        while True:
            runnable = [pe for pe in self.pes if pe.has_work(step)]
            if not runnable:
                if self.transport.in_flight == 0:
                    break
                step = self.transport.next_due()
                continue
            pe = runnable[self.chaos.randint(0, len(runnable) - 1)]
            pe.step(step)
            step += 1
            if self.global_processed - self._last_gvt_mark >= self.gvt_interval:
                self._commit_epoch(committed, final=False)
        self._commit_epoch(committed, final=True)
        self._check_quiescent()
        finals = {rt.lp_id: self.model.final_value(rt.state)
                  for rt in self._all_lps}
        header = Trace.make_header(
            self.model.name, self.mode.value, self.global_seed,
            {"kernel": "optimistic", "workers": self.n_workers,
             "chaos_seed": self.chaos_cfg.chaos_seed,
             "max_delay": self.chaos_cfg.max_delay})
        return Trace(committed=committed, final_states=finals,
                     net_event_count=len(committed), header=header)

    def _check_quiescent(self) -> None:
        if self.transport.in_flight != 0:
            raise UnmatchedAntiMessage("transport still holds messages at shutdown")
        for pe in self.pes:
            if pe.pop_live() is not None:
                raise UnmatchedAntiMessage(
                    f"PE {pe.pe_id} still holds live pending events at shutdown")
            if sum(pe.kill_marks.values()) != 0:
                raise UnmatchedAntiMessage(
                    f"PE {pe.pe_id} holds kill marks with no matching events")
            if sum(pe.stash.values()) != 0:
                raise UnmatchedAntiMessage(
                    f"PE {pe.pe_id} still stashes anti-messages at shutdown")

    def metrics(self) -> dict:
        processed = sum(pe.total_processed for pe in self.pes)
        rolled_back = sum(pe.rolled_back_events for pe in self.pes)
        committed = processed - rolled_back
        return {
            "workers": self.n_workers,
            "processed": processed,
            "rolled_back": rolled_back,
            "rollbacks": sum(pe.rollbacks for pe in self.pes),
            "stragglers": sum(pe.stragglers for pe in self.pes),
            "antis_sent": sum(pe.antis_sent for pe in self.pes),
            "annihilations": self.annihilations,
            "messages_sent": self.transport.total_sent,
            "gvt_rounds": self.gvt_rounds,
            "efficiency": committed / processed if processed else 1.0,
        }


def run_optimistic(model, mode: OrderingMode, global_seed: int, n_workers: int,
                   chaos_seed: int = 0, max_delay: int = DEFAULT_MAX_DELAY,
                   gvt_interval: int = DEFAULT_GVT_INTERVAL,
                   seq_cap: int = DEFAULT_SEQUENCE_CAP, naive: bool = False,
                   livelock_bound: int = DEFAULT_LIVELOCK_BOUND) -> Trace:
    kernel = OptimisticKernel(model, mode, global_seed, n_workers,
                              chaos=ChaosConfig(chaos_seed, max_delay),
                              gvt_interval=gvt_interval, seq_cap=seq_cap,
                              naive=naive, livelock_bound=livelock_bound)
    return kernel.run()
