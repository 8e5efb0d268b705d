"""Sequential reference kernel: one global heap, ascending signature order.

This kernel is the ground truth. It processes every event in strictly
ascending signature order, so an optimistic run is correct exactly when its
committed trace matches this one bit for bit. The LP runtime and the event
factory live here and are shared with the optimistic kernel, which keeps the
two kernels' serials, and so their identity-keyed tie-break draws, identical.
"""

from __future__ import annotations

import gc
from functools import wraps
from heapq import heappop, heappush
from operator import index

from .errors import WORD_LIMIT, CausalityViolation, ConfigError, check_count
from .models import Emit
from .rngstream import _LANES, DrawStream, draw_block, lp_key_arrays, mix64
from .timebase import (
    DEFAULT_SEQUENCE_CAP,
    OrderingMode,
    derive_child_signature,
    format_signature,
    sort_key,
)
from .trace import Event, Trace

# build_event's constructor of every event a run makes: an empty Event,
# whose slots it fills (Event's docstring says why)
_new_event = object.__new__


class LpRuntime:
    """Per-LP mutable state: model state, model stream, serial counter.

    The serial counter numbers events *sent* by this LP and is part of event
    identity, so it must be restored on rollback along with the state and
    the model stream's cursor, from the undo image that the optimistic
    kernel's ``ProcessedEntry`` takes. The tie-break of the LP's event with
    serial ``s`` is ``draw_at(tiebreak_key, s)``, read from the cached
    ``draw_block`` of block ``s // _LANES``: a pure function of the key and
    the block index, so a serial assigned back needs no invalidation and
    the undo image leaves the cache out. ``pe_id`` is 0 in sequential runs
    and the owning PE otherwise. The two keys are ``rngstream.lp_key_arrays``
    of the run's seed, at the LP id.
    """

    __slots__ = ("lp_id", "pe_id", "state", "tiebreak_key", "model_stream", "serial",
                 "tiebreak_index", "tiebreak_block")

    def __init__(self, lp_id: int, pe_id: int, state, tiebreak_key: int, model_key: int):
        self.lp_id = lp_id
        self.pe_id = pe_id
        self.state = state
        self.tiebreak_key = tiebreak_key
        self.model_stream = DrawStream(model_key)
        self.serial = 0
        self.tiebreak_index = None
        self.tiebreak_block = None


def build_event(
    source: LpRuntime,
    parent: Event | None,
    emit: Emit,
    mode: OrderingMode,
    seq_cap: int,
    model,
) -> Event | None:
    """Create an event from an emit request, deriving its signature and key.

    Consumes one serial from the source LP, in both kernels, and then
    returns None for an emit past ``model.end_time``, before keying it: the
    kernels' one test of the end time. In draw-based modes the tie-break
    draw is ``draw_at(source.tiebreak_key, serial)``, from the source's
    cached block, unless the emit forces a replayed value; ``parent`` is
    None for a seed. Payloads must be hashable, because the optimistic
    kernel matches the events it sends between PEs on their content; both
    kernels reject an unhashable one here, a destination that is not an LP
    id in ``[0, n_lps)``, a forced tie-break that is not a 64-bit draw, an
    int in ``[0, 2**64)``, and an offset that is not a real number >= 0 in
    float range, each with a ``ConfigError`` that names the LP; a bool is
    neither an LP id nor an offset.

    A child keyed below its parent raises ``CausalityViolation``: this is
    both kernels' one causality check, which only modes naive and biased
    can fail.
    """
    dest_lp, offset, payload, forced = emit
    try:
        dest = index(dest_lp)
    except TypeError:
        dest = None
    # index returns an exact int as it is, so only a value it converted can
    # be a bool, and a bool is no LP id, as it is no count
    if dest is not dest_lp and isinstance(dest_lp, bool):
        dest = None
    if dest is None or not 0 <= dest < model.n_lps:
        raise ConfigError(
            f"LP {source.lp_id} emitted an event to LP {dest_lp!r}; "
            f"destinations must be integers in [0, {model.n_lps})")
    try:
        hash(payload)
    except TypeError:
        raise ConfigError(
            f"LP {source.lp_id} emitted an unhashable payload of type "
            f"{type(payload).__name__}; event payloads must be hashable") from None
    if forced is not None:
        check_count(f"LP {source.lp_id}'s forced tie-break", forced, 0, WORD_LIMIT)
    serial = source.serial
    source.serial = serial + 1
    if not mode.uses_draws:
        draw = None
    elif forced is not None:
        draw = forced
    else:
        if serial // _LANES != source.tiebreak_index:
            source.tiebreak_index = serial // _LANES
            source.tiebreak_block = draw_block(source.tiebreak_key, serial - serial % _LANES)
        draw = source.tiebreak_block[serial % _LANES]
    try:
        if type(offset) is bool:
            raise TypeError
        timestamp, tiebreak = derive_child_signature(parent, offset, draw, mode, seq_cap)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(
            f"LP {source.lp_id} emitted an event at offset {offset!r}; "
            f"offsets must be real numbers >= 0 in float range") from None
    if not timestamp <= model.end_time:
        return None
    ev = _new_event(Event)
    if parent is None:
        depth = 0
        ev.parent_lp = ev.parent_serial = None
    else:
        # simultaneous exactly when derive extended the parent's signature
        depth = parent.zero_offset_depth + 1 if timestamp == parent.timestamp else 0
        ev.parent_lp = parent.source_lp
        ev.parent_serial = parent.serial
    ev.source_pe = source.pe_id
    ev.source_lp = source.lp_id
    ev.serial = serial
    ev.dest_lp = dest
    ev.timestamp = timestamp
    ev.tiebreak = tiebreak
    ev.payload = payload
    ev.zero_offset_depth = depth
    ev.match = None
    ev.key = key = sort_key(ev, mode)
    if parent is not None and key < parent.key:
        raise CausalityViolation(
            f"event {ev!r} at {format_signature(ev)} sorts "
            f"before the already-processed frontier")
    return ev


def make_lps(model, global_seed: int, lp_pe=None) -> list[LpRuntime]:
    """Instantiate all LP runtimes; ``lp_pe[lp_id]`` is the LP's owning PE.

    Both kernels build their LPs here, so this checks their seed, and
    derives all the LPs' keys in one lane pass."""
    check_count("global_seed", global_seed, 0, WORD_LIMIT)
    tiebreak_keys, model_keys = lp_key_arrays(mix64(global_seed), range(model.n_lps))
    return [LpRuntime(lp_id, 0 if lp_pe is None else lp_pe[lp_id],
                      model.initial_state(lp_id), tiebreak_keys[lp_id], model_keys[lp_id])
            for lp_id in range(model.n_lps)]


def seed_initial_events(model, lps: list[LpRuntime], mode: OrderingMode,
                        seq_cap: int) -> list[Event]:
    """Build every LP's seed events, each at its offset from time zero; a
    seed past the end time takes its serial and builds no event."""
    events = []
    for rt in lps:
        for emit in model.seed_events(rt.lp_id, rt.model_stream):
            ev = build_event(rt, None, emit, mode, seq_cap, model)
            if ev is not None:
                events.append(ev)
    return events


def collector_paused(run):
    """Decorate a kernel's ``run`` to pause CPython's cyclic garbage
    collector while it runs. The collector is disabled only if it was
    enabled, and enabled again on every exit, a raise included, only if
    this run disabled it, so a caller that disabled it keeps it disabled.
    """
    @wraps(run)
    def paused_run(kernel):
        if not gc.isenabled():
            return run(kernel)
        gc.disable()
        try:
            return run(kernel)
        finally:
            gc.enable()
    return paused_run


class SequentialKernel:
    """Processes every event in ascending signature order on one heap.

    Heap entries are ``(timestamp, key, insertion seq, event)``. Every
    mode's key starts with the timestamp, so the order is the keys' order,
    but a comparison between events at different times settles on one float.
    The sequence number keeps the heap totally ordered even in the
    no-tie-break mode, where keys are bare timestamps. Since ``build_event``
    refuses a child keyed below its parent, every pop is at or above the
    one before it. ``peak_pending``, the heap's largest size before a pop,
    is set when ``run`` returns.
    """

    def __init__(self, model, mode: OrderingMode, global_seed: int,
                 seq_cap: int = DEFAULT_SEQUENCE_CAP):
        check_count("seq_cap", seq_cap, 1)
        self.model = model
        self.mode = mode
        self.seq_cap = seq_cap
        self.lps = make_lps(model, global_seed)
        self.peak_pending = 0

    @collector_paused
    def run(self) -> Trace:
        """Process every event in signature order; the committed trace.

        The run pauses the cyclic garbage collector and restores its state
        on return or raise (``collector_paused``). Committed events stay
        alive in the trace, so the collector's passes over the growing heap
        found nothing to free: on input 0:0 of the ``phold-seq`` benchmark
        it made 80 gen-0 and 7 gen-1 passes, 7-9% of the run's time, and a
        ``gc.collect()`` after a paused run frees no object (the tests check
        this for every built-in model, in each mode it completes in).
        Reference counting still frees what the run drops at once; only
        cyclic garbage, such as that of a handler that builds reference
        cycles, waits until ``run`` returns.
        """
        mode = self.mode
        model = self.model
        lps = self.lps
        seq_cap = self.seq_cap
        handle = model.handle
        heap: list = []
        seq = 0
        committed: list[Event] = []
        for ev in seed_initial_events(model, lps, mode, seq_cap):
            heappush(heap, (ev.timestamp, ev.key, seq, ev))
            seq += 1
        peak_pending = 0
        while heap:
            if len(heap) > peak_pending:
                peak_pending = len(heap)
            parent = heappop(heap)[3]
            rt = lps[parent.dest_lp]
            new_state, emits = handle(rt.state, parent, rt.model_stream)
            rt.state = new_state
            committed.append(parent)
            for emit in emits:
                ev = build_event(rt, parent, emit, mode, seq_cap, model)
                if ev is not None:
                    heappush(heap, (ev.timestamp, ev.key, seq, ev))
                    seq += 1
        self.peak_pending = peak_pending
        finals = {lp.lp_id: model.final_value(lp.state) for lp in lps}
        return Trace(committed=committed, final_states=finals)


def run_sequential(model, mode: OrderingMode, global_seed: int,
                   seq_cap: int = DEFAULT_SEQUENCE_CAP) -> Trace:
    return SequentialKernel(model, mode, global_seed, seq_cap=seq_cap).run()
