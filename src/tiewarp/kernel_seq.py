"""Sequential reference kernel: one global heap, ascending signature order.

This kernel is the ground truth. It processes every event in strictly
ascending signature order, so an optimistic run is correct exactly when its
committed trace matches this one bit for bit. The LP runtime and the event
factory live here and are shared with the optimistic kernel, which keeps the
two kernels' draw accounting and serial numbering identical by construction.
"""

from __future__ import annotations

from heapq import heappop, heappush

from .errors import CausalityViolation, ConfigError
from .models import Emit
from .rngstream import DrawStream, Purpose
from .timebase import (
    DEFAULT_SEQUENCE_CAP,
    OrderingMode,
    TimeSignature,
    derive_child_signature,
    derive_naive_signature,
    format_signature,
    sort_key,
)
from .trace import Event, Trace

# Virtual parent of seed events: time zero, empty tie-break.
_ROOT_SIGNATURE = TimeSignature(0.0)


class LpRuntime:
    """Per-LP mutable state: model state, both draw streams, serial counter.

    The serial counter numbers events *sent* by this LP and is part of event
    identity, so it must be restored on rollback along with the stream
    cursors. ``pe_id`` is 0 in sequential runs and the owning PE otherwise.
    """

    __slots__ = ("lp_id", "pe_id", "state", "tiebreak_stream", "model_stream", "serial")

    def __init__(self, lp_id: int, pe_id: int, state, global_seed: int):
        self.lp_id = lp_id
        self.pe_id = pe_id
        self.state = state
        self.tiebreak_stream = DrawStream.for_lp(global_seed, lp_id, Purpose.TIEBREAK)
        self.model_stream = DrawStream.for_lp(global_seed, lp_id, Purpose.MODEL)
        self.serial = 0

    def next_serial(self) -> int:
        s = self.serial
        self.serial += 1
        return s


def build_event(
    source: LpRuntime,
    parent: Event | None,
    emit: Emit,
    mode: OrderingMode,
    seq_cap: int = DEFAULT_SEQUENCE_CAP,
    naive: bool = False,
) -> Event:
    """Create an event from an emit request, deriving its signature and key.

    Consumes one tie-break draw in draw-based modes (unless the emit forces
    a replayed value) and one serial from the source LP, in both kernels,
    whether or not the event survives the horizon check. ``naive`` swaps in
    the broken independent-draw derivation for zero offsets; it exists only
    to demonstrate why that derivation is unsafe. Payloads must be hashable,
    because the optimistic kernel matches anti-messages on event content;
    both kernels reject an unhashable one here.
    """
    payload = emit.payload
    try:
        hash(payload)
    except TypeError:
        raise ConfigError(
            f"LP {source.lp_id} emitted an unhashable payload of type "
            f"{type(payload).__name__}; event payloads must be hashable") from None
    serial = source.next_serial()
    if parent is None:
        parent_sig, depth, parent_key = _ROOT_SIGNATURE, 0, None
    else:
        parent_sig = parent.signature
        depth = parent.zero_offset_depth + 1 if emit.offset == 0.0 else 0
        parent_key = (parent.source_lp, parent.serial)
    if not mode.uses_draws:
        draw = None
    elif emit.forced_tiebreak is not None:
        draw = emit.forced_tiebreak
    else:
        draw = source.tiebreak_stream.draw()
    if naive and draw is not None:
        sig = derive_naive_signature(parent_sig, emit.offset, draw)
    else:
        sig = derive_child_signature(parent_sig, emit.offset, draw, mode, seq_cap)
    key = sort_key(sig, (source.pe_id, source.lp_id, serial), mode)
    return Event(source.pe_id, source.lp_id, serial, emit.dest_lp, sig, key,
                 payload, False, depth, parent_key)


def make_lps(model, global_seed: int, pe_of_lp=None) -> list[LpRuntime]:
    """Instantiate all LP runtimes; ``pe_of_lp`` maps LP id to owning PE."""
    lps = []
    for lp_id in range(model.n_lps):
        pe = 0 if pe_of_lp is None else pe_of_lp(lp_id)
        lps.append(LpRuntime(lp_id, pe, model.initial_state(lp_id), global_seed))
    return lps


def seed_initial_events(model, lps: list[LpRuntime], mode: OrderingMode,
                        seq_cap: int) -> list[Event]:
    """Build every LP's seed events; seed emits hang off the virtual root."""
    events = []
    for rt in lps:
        for emit in model.seed_events(rt.lp_id, rt.model_stream):
            events.append(build_event(rt, None, emit, mode, seq_cap))
    return events


class SequentialKernel:
    """Processes every event in ascending signature order on one heap.

    Heap entries carry an insertion sequence number after the sort key, so
    the heap stays totally ordered even in the no-tie-break mode where keys
    are bare timestamps. A pop below the last processed key means the
    signature scheme failed to order a child after its parent and raises
    immediately; with the safe derivations this cannot happen.
    """

    def __init__(self, model, mode: OrderingMode, global_seed: int,
                 seq_cap: int = DEFAULT_SEQUENCE_CAP, naive: bool = False,
                 collect_trace: bool = True):
        self.model = model
        self.mode = mode
        self.global_seed = global_seed
        self.seq_cap = seq_cap
        self.naive = naive
        self.collect_trace = collect_trace
        self.lps = make_lps(model, global_seed)
        self.processed_count = 0
        self.peak_pending = 0
        self._heap: list = []
        self._push_seq = 0

    def _push(self, ev: Event) -> None:
        if ev.signature.timestamp > self.model.end_time:
            return
        heappush(self._heap, (ev.key, self._push_seq, ev))
        self._push_seq += 1

    def run(self) -> Trace:
        mode = self.mode
        model = self.model
        lps = self.lps
        for ev in seed_initial_events(model, lps, mode, self.seq_cap):
            self._push(ev)
        committed: list[Event] = []
        last_key = None
        heap = self._heap
        while heap:
            if len(heap) > self.peak_pending:
                self.peak_pending = len(heap)
            key, _, ev = heappop(heap)
            if last_key is not None and key < last_key:
                raise CausalityViolation(
                    f"event {ev!r} at {format_signature(ev.signature)} sorts "
                    f"before the already-processed frontier",
                    event=repr(ev), frontier=repr(last_key))
            last_key = key
            rt = lps[ev.dest_lp]
            new_state, emits = model.handle(rt.state, ev, rt.model_stream)
            rt.state = new_state
            if self.collect_trace:
                committed.append(ev)
            self.processed_count += 1
            for emit in emits:
                self._push(build_event(rt, ev, emit, mode, self.seq_cap, self.naive))
        finals = {lp.lp_id: model.final_value(lp.state) for lp in lps}
        header = Trace.make_header(model.name, mode.value, self.global_seed,
                                   {"kernel": "sequential"})
        return Trace(committed=committed, final_states=finals,
                     net_event_count=self.processed_count, header=header)


def run_sequential(model, mode: OrderingMode, global_seed: int,
                   seq_cap: int = DEFAULT_SEQUENCE_CAP, naive: bool = False,
                   collect_trace: bool = True) -> Trace:
    kernel = SequentialKernel(model, mode, global_seed, seq_cap=seq_cap,
                              naive=naive, collect_trace=collect_trace)
    return kernel.run()
