"""Events, committed traces, and their canonical serialization.

A Trace is the engine's observable output: the committed event order plus
every LP's final model state. Two runs are "the same run" exactly when
their trace digests match; the digest is a SHA-256 over a canonical text
form that deliberately excludes anything partition- or schedule-dependent
(PE ids, wall time, rollback counts), so a sequential run and any optimistic
run can hash identically.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

from .rngstream import GENERATOR_NAME, GENERATOR_VERSION
from .timebase import (
    TimeSignature,
    format_tiebreak,
    format_timestamp,
    parse_tiebreak,
)

TRACE_SCHEMA = "tiewarp.trace/1"
SUMMARY_SCHEMA = "tiewarp.summary/1"

TRACE_CSV_HEADER = "commit_index,lp,timestamp,tiebreak,serial"


class Event:
    """An addressed, signed message: the only mechanism for state change.

    One record serves the queues, the anti-messages and the committed trace.
    ``(source_lp, serial)`` is globally unique; ``source_pe``, the creating
    PE, exists for the explicit-bias ruleset and depends on how LPs are
    partitioned. ``key`` is the event's total-order sort key, computed once
    when the event is built. ``parent_key`` is the (source_lp, serial) of the
    causal parent event, or None for seed events; the causality audits walk
    these back-pointers. ``zero_offset_depth`` counts consecutive
    zero-offset ancestors.
    """

    __slots__ = (
        "source_pe",
        "source_lp",
        "serial",
        "dest_lp",
        "signature",
        "key",
        "payload",
        "anti",
        "zero_offset_depth",
        "parent_key",
    )

    def __init__(
        self,
        source_pe: int,
        source_lp: int,
        serial: int,
        dest_lp: int,
        signature: TimeSignature,
        key: tuple | None = None,
        payload=None,
        anti: bool = False,
        zero_offset_depth: int = 0,
        parent_key=None,
    ):
        self.source_pe = source_pe
        self.source_lp = source_lp
        self.serial = serial
        self.dest_lp = dest_lp
        self.signature = signature
        self.key = key
        self.payload = payload
        self.anti = anti
        self.zero_offset_depth = zero_offset_depth
        self.parent_key = parent_key

    def match_key(self) -> tuple:
        """Anti-message matching key: the event's full content.

        Creation identity alone is not enough: after a rollback corrects an
        LP's history, a re-issued event can reuse a serial with different
        content, and an annihilation aimed at the stale copy must never hit
        the corrected one. An anti-message is an exact copy of its positive
        (only the sign differs), so matching on content makes equal-key
        copies interchangeable by construction: they commit the same line,
        drive the same state transition, and spawn the same children.
        Payloads must therefore be hashable values.
        """
        sig = self.signature
        return (self.source_lp, self.serial, self.dest_lp, sig.timestamp,
                sig.tiebreak, self.payload, self.zero_offset_depth,
                self.parent_key)

    def as_anti(self) -> "Event":
        return Event(self.source_pe, self.source_lp, self.serial, self.dest_lp,
                     self.signature, self.key, self.payload, True,
                     self.zero_offset_depth, self.parent_key)

    def canonical_line(self, commit_index: int) -> str:
        """The digest's text for this event committed at ``commit_index``."""
        parent = (
            f"{self.parent_key[0]}#{self.parent_key[1]}" if self.parent_key else "-"
        )
        sig = self.signature
        return (
            f"{commit_index},{self.source_lp},{self.serial},{self.dest_lp},"
            f"{format_timestamp(sig.timestamp)},"
            f"{format_tiebreak(sig.tiebreak)},{parent}"
        )

    def __repr__(self):
        kind = "anti" if self.anti else "event"
        return (
            f"<{kind} lp{self.source_lp}#{self.serial}"
            f" -> lp{self.dest_lp} @ {self.signature.timestamp}>"
        )


@dataclass
class Trace:
    """Committed event order plus per-LP final states.

    ``committed`` lists the committed Events; an event's commit index is its
    position in the list.
    """

    committed: list = field(default_factory=list)
    final_states: dict = field(default_factory=dict)
    net_event_count: int = 0
    header: dict = field(default_factory=dict)

    @staticmethod
    def make_header(model: str, mode: str, global_seed: int, extra: dict | None = None) -> dict:
        header = {
            "schema": TRACE_SCHEMA,
            "generator": GENERATOR_NAME,
            "generator_version": GENERATOR_VERSION,
            "model": model,
            "mode": mode,
            "global_seed": global_seed,
        }
        if extra:
            header.update(extra)
        return header

    def canonical_lines(self):
        for index, ev in enumerate(self.committed):
            yield ev.canonical_line(index)
        for lp in sorted(self.final_states):
            value = self.final_states[lp]
            text = format_timestamp(value) if isinstance(value, float) else repr(value)
            yield f"state,{lp},{text}"

    def digest(self) -> str:
        h = hashlib.sha256()
        for line in self.canonical_lines():
            h.update(line.encode("ascii"))
            h.update(b"\n")
        return h.hexdigest()

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(TRACE_CSV_HEADER + "\n")
            for index, ev in enumerate(self.committed):
                fh.write(
                    f"{index},{ev.dest_lp},"
                    f"{format_timestamp(ev.signature.timestamp)},"
                    f"{format_tiebreak(ev.signature.tiebreak)},"
                    f"{ev.serial}\n"
                )

    def summary_dict(self, metrics: dict | None = None) -> dict:
        summary = {
            "schema": SUMMARY_SCHEMA,
            "header": self.header,
            "net_events": self.net_event_count,
            "final_states": {str(lp): self.final_states[lp] for lp in sorted(self.final_states)},
            "digest": self.digest(),
        }
        if metrics is not None:
            summary["metrics"] = metrics
        return summary

    def write_summary(self, path, metrics: dict | None = None) -> None:
        with open(path, "w", encoding="ascii") as fh:
            json.dump(self.summary_dict(metrics), fh, indent=2, sort_keys=True)
            fh.write("\n")


def read_trace_csv(path) -> list:
    """Round-trip reader for the CSV trail: (index, lp, signature, serial)."""
    rows = []
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline().strip()
        if header != TRACE_CSV_HEADER:
            raise ValueError(f"unexpected trace CSV header {header!r}")
        for line in fh:
            idx, lp, ts, tb, serial = line.strip().split(",")
            rows.append(
                (int(idx), int(lp), TimeSignature(float(ts), parse_tiebreak(tb)), int(serial))
            )
    return rows


def first_divergence_rows(rows_a: list, rows_b: list):
    """First index where two read-back CSV row lists differ; None if equal."""
    for i, (ra, rb) in enumerate(zip(rows_a, rows_b)):
        if ra != rb:
            return i
    if len(rows_a) != len(rows_b):
        return min(len(rows_a), len(rows_b))
    return None


def first_divergence(a: Trace, b: Trace):
    """Index of the first differing commit, or None if traces are identical.

    Final-state differences with an identical commit stream are reported as
    index -1 (possible only across modes or via kernel bugs).
    """
    for index, (ea, eb) in enumerate(zip(a.committed, b.committed)):
        # identities compare by (lp, serial): the creating PE is a detail of
        # the partition and legitimately differs between kernels
        if (
            ea.source_lp != eb.source_lp
            or ea.serial != eb.serial
            or ea.dest_lp != eb.dest_lp
            or ea.signature != eb.signature
        ):
            return index
    if len(a.committed) != len(b.committed):
        return min(len(a.committed), len(b.committed))
    if a.final_states != b.final_states:
        return -1
    return None
