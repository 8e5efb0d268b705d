"""Outside-in per-layer tracing of one tiewarp run.

The tracer replaces the public entry points of each layer with timing
wrappers for the duration of one run and puts the original objects back
afterwards. Nothing inside ``src/`` knows about it.

Several functions are bound into their callers' namespaces at import time
(``from .timebase import sort_key`` and so on), so a wrapper is installed in
every module that calls through such a binding; patching only the defining
module would silently count nothing.

Each wrapper is a span. A span's self time is its duration minus the time
covered by the wrapped spans it called, so the self times of all spans plus
the untraced remainder add up to the traced wall time.
"""

from __future__ import annotations

from collections import defaultdict
from time import perf_counter

from tiewarp import kernel_optimistic, kernel_seq, rngstream, trace

# (owner, attribute, span). Functions bound by name into a caller's module
# appear once per binding that the run calls through.
PATCH_POINTS = (
    (rngstream.DrawStream, "draw", "draw"),
    (kernel_seq, "derive_child_signature", "derive"),
    (kernel_seq, "sort_key", "sort_key"),
    (kernel_optimistic, "sort_key", "sort_key"),
    (kernel_seq, "build_event", "build_event"),
    (kernel_optimistic, "build_event", "build_event"),
    (kernel_seq, "heappush", "heap"),
    (kernel_seq, "heappop", "heap"),
    (kernel_seq.SequentialKernel, "run", "seq_run"),
    (kernel_optimistic.PeRuntime, "enqueue_positive", "queue"),
    (kernel_optimistic.PeRuntime, "pop_live", "queue"),
    (kernel_optimistic.Transport, "send", "transport"),
    (kernel_optimistic.Transport, "deliver_due", "transport"),
    (kernel_optimistic.PeRuntime, "step", "step"),
    (kernel_optimistic.PeRuntime, "collect_fossils", "fossil"),
    (kernel_optimistic.OptimisticKernel, "run", "opt_run"),
    (kernel_optimistic.PeRuntime, "rollback_past", "rollback"),
    (kernel_optimistic.PeRuntime, "rollback_through", "rollback"),
    (kernel_optimistic.PeRuntime, "receive_anti", "anti"),
    (trace.Event, "match_key", "match_key"),
)


def lookup(owner, attr):
    # vars() gives the plain function stored on a class, not a bound method
    return vars(owner)[attr]


class LayerTracer:
    """Counts and self/inclusive times per span, installed for one run.

    ``install(model_class)`` also wraps the model's ``handle``; ``remove``
    restores every attribute and ``restored()`` confirms that each one is
    the original object again.
    """

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.tiebreak_len_sum = 0
        self.peak_history = 0
        self._stack = [0.0]
        self._saved = []

    def _wrap(self, span, fn, observe=None):
        calls, self_s, total_s = self.calls, self.self_s, self.total_s
        stack = self._stack

        def wrapper(*args, **kwargs):
            if observe is not None:
                observe(*args)
            stack.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                self_s[span] += dt - stack.pop()
                total_s[span] += dt
                stack[-1] += dt
                calls[span] += 1

        return wrapper

    def _observe_sort_key(self, signature, *_):
        self.tiebreak_len_sum += len(signature.tiebreak)

    def _observe_fossils(self, pe, *_):
        # collect_fossils runs once per PE per GVT round, before pruning
        if len(pe.processed) > self.peak_history:
            self.peak_history = len(pe.processed)

    def install(self, model_class) -> None:
        if self._saved:
            raise RuntimeError("tracer is already installed")
        observers = {"sort_key": self._observe_sort_key,
                     "fossil": self._observe_fossils}
        points = PATCH_POINTS + ((model_class, "handle", "handle"),)
        for owner, attr, span in points:
            original = lookup(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(span, original, observers.get(span)))

    def remove(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)

    def restored(self) -> bool:
        return all(lookup(owner, attr) is original
                   for owner, attr, original in self._saved)


def layer_metrics(tracer: LayerTracer, committed: int,
                  opt_metrics: dict | None, peak_pending: int) -> dict:
    """Per-layer metric values (unit-less numbers) from one traced run.

    ``opt_metrics`` is ``OptimisticKernel.metrics()``, or None for a
    sequential run, whose optimistic counters are all zero.
    """
    c, s = tracer.calls, tracer.self_s
    opt = opt_metrics or {}
    return {
        "rngstream.draws": c["draw"],
        "rngstream.draws_per_commit": c["draw"] / committed,
        "rngstream.draw_self_s": s["draw"],
        "timebase.derive_calls": c["derive"],
        "timebase.derive_self_s": s["derive"],
        "timebase.sort_key_calls": c["sort_key"],
        "timebase.sort_key_self_s": s["sort_key"],
        "timebase.mean_tiebreak_len":
            tracer.tiebreak_len_sum / c["sort_key"] if c["sort_key"] else 0.0,
        "models.handle_calls": c["handle"],
        "models.handle_self_s": s["handle"],
        "kernel_seq.build_event_calls": c["build_event"],
        "kernel_seq.build_event_self_s": s["build_event"],
        "kernel_seq.heap_ops": c["heap"],
        "kernel_seq.heap_self_s": s["heap"],
        "kernel_seq.peak_pending": peak_pending,
        "kernel_seq.loop_self_s": s["seq_run"],
        "kernel_optimistic.processed": opt.get("processed", 0),
        "kernel_optimistic.rolled_back": opt.get("rolled_back", 0),
        "kernel_optimistic.efficiency": opt.get("efficiency", 1.0),
        "kernel_optimistic.rollbacks": opt.get("rollbacks", 0),
        "kernel_optimistic.stragglers": opt.get("stragglers", 0),
        "kernel_optimistic.antis_sent": opt.get("antis_sent", 0),
        "kernel_optimistic.annihilations": opt.get("annihilations", 0),
        "kernel_optimistic.messages_sent": opt.get("messages_sent", 0),
        "kernel_optimistic.gvt_rounds": opt.get("gvt_rounds", 0),
        "kernel_optimistic.steps": c["step"],
        "kernel_optimistic.peak_history": tracer.peak_history,
        "kernel_optimistic.queue_self_s": s["queue"],
        "kernel_optimistic.transport_self_s": s["transport"],
        "kernel_optimistic.forward_self_s": s["step"],
        "kernel_optimistic.fossil_self_s": s["fossil"],
        "kernel_optimistic.gvt_commit_self_s": s["opt_run"],
        "kernel_optimistic.rollback_self_s": s["rollback"],
        "kernel_optimistic.anti_self_s": s["anti"],
        "trace.match_key_calls": c["match_key"],
        "trace.match_key_self_s": s["match_key"],
    }


def identity_violations(metrics: dict, committed: int, optimistic: bool,
                        restored: bool) -> list[str]:
    """Count identities that must hold exactly for a correctly wrapped run."""
    bad = []
    handled = metrics["models.handle_calls"]
    if optimistic:
        processed = metrics["kernel_optimistic.processed"]
        if handled != processed:
            bad.append(f"handle calls {handled} != processed {processed}")
        rolled = metrics["kernel_optimistic.rolled_back"]
        if processed - rolled != committed:
            bad.append(f"processed {processed} - rolled back {rolled} "
                       f"!= committed {committed}")
    elif handled != committed:
        bad.append(f"handle calls {handled} != committed {committed}")
    if not restored:
        bad.append("a patched attribute was not restored")
    return bad
