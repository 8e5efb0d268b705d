"""Events, committed traces, and their canonical serialization.

A Trace is the engine's observable output: the committed event order plus
every LP's final model state. Two runs are "the same run" exactly when
their trace digests match; the digest is a SHA-256 over a canonical text
form that deliberately excludes anything partition- or schedule-dependent
(PE ids, wall time, rollback counts), so a sequential run and any optimistic
run can hash identically.

The trace file is that canonical text itself, behind a one-line schema tag,
so the SHA-256 of a file's bytes after its first line is the run's digest.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from itertools import islice, zip_longest

from .errors import ConfigError
from .rngstream import GENERATOR_NAME, GENERATOR_VERSION
from .timebase import format_tiebreak, format_timestamp

TRACE_SCHEMA = "tiewarp.trace/2"
SUMMARY_SCHEMA = "tiewarp.summary/2"

# Committed events formatted per chunk of canonical text. Encoding, hashing
# and writing hold one chunk at a time, never the whole text.
CHUNK = 4096


class Event:
    """An addressed, signed message: the only mechanism for state change.

    One record serves the queues, the anti-messages and the committed trace:
    an anti-message is the event itself, sent with a negative sign.
    ``(source_lp, serial)`` is globally unique; ``source_pe``, the creating
    PE, exists for the explicit-bias ruleset and depends on how LPs are
    partitioned. ``timestamp`` and ``tiebreak`` are the event's signature and
    ``key`` its total-order sort key, ``timebase.sort_key``'s tuple, all set
    once when the event is built; in the draw modes the key is flat,
    ``(timestamp, *tiebreak, -1, source_lp, serial)``, and the kernels
    compare keys natively.
    ``parent_key`` is the (source_lp, serial) of the causal parent event, or
    None for seed events; the causality audits walk these back-pointers.
    ``zero_offset_depth`` counts consecutive zero-offset ancestors. ``match``
    is what the optimistic kernel's annihilation counts are keyed by, stored
    once when it creates the event, and None in sequential runs: ``id(self)``
    for an event that never leaves its PE (a seed or a local child), and
    ``match_key()`` for one sent through the transport.
    """

    __slots__ = (
        "source_pe",
        "source_lp",
        "serial",
        "dest_lp",
        "timestamp",
        "tiebreak",
        "key",
        "payload",
        "zero_offset_depth",
        "parent_key",
        "match",
    )

    def __init__(
        self,
        source_pe: int,
        source_lp: int,
        serial: int,
        dest_lp: int,
        timestamp: float,
        tiebreak: tuple = (),
        key: tuple | None = None,
        payload=None,
        zero_offset_depth: int = 0,
        parent_key=None,
        match: tuple | None = None,
    ):
        self.source_pe = source_pe
        self.source_lp = source_lp
        self.serial = serial
        self.dest_lp = dest_lp
        self.timestamp = timestamp
        self.tiebreak = tiebreak
        self.key = key
        self.payload = payload
        self.zero_offset_depth = zero_offset_depth
        self.parent_key = parent_key
        self.match = match

    def match_key(self) -> tuple:
        """Anti-message matching key of an event sent between PEs: its full
        content.

        Creation identity alone is not enough: after a rollback corrects an
        LP's history, a re-issued event can reuse a serial with different
        content, and an annihilation aimed at the stale copy must never hit
        the corrected one, even when its anti-message overtakes it and waits
        in the stash. Matching on content makes equal-key copies
        interchangeable by construction: they commit the same line, drive the
        same state transition, and spawn the same children.
        Payloads must therefore be hashable values. Events that never leave
        their PE are matched by identity instead, and never call this.
        """
        return (self.source_lp, self.serial, self.dest_lp, self.timestamp,
                self.tiebreak, self.payload, self.zero_offset_depth,
                self.parent_key)

    def __repr__(self):
        return (
            f"<event lp{self.source_lp}#{self.serial}"
            f" -> lp{self.dest_lp} @ {self.timestamp}>"
        )


@dataclass
class Trace:
    """Committed event order plus per-LP final states: what the digest covers.

    ``committed`` lists the committed Events; an event's commit index is its
    position in the list.
    """

    committed: list = field(default_factory=list)
    final_states: dict = field(default_factory=dict)

    def _chunks(self):
        """The canonical lines, one list per chunk: the only place their text
        is spelled out.

        Commit lines come first, at most CHUNK per list, then one list of
        ``state,LP,value`` lines (empty when there are no final states). A
        value that is not a float is spelled by ``ascii``, so lines are ASCII.
        A single draw, the common tie-break, is spelled here as
        ``format_tiebreak`` spells it, without the call; a value with no
        16-byte encoding raises OverflowError and takes the call.
        """
        committed = self.committed
        tiebreak = format_tiebreak
        for start in range(0, len(committed), CHUNK):
            lines = []
            append = lines.append
            for index, ev in enumerate(committed[start:start + CHUNK], start):
                parent = ev.parent_key
                tb = ev.tiebreak
                try:
                    text = tb[0].to_bytes(16, "big").hex() if len(tb) == 1 else tiebreak(tb)
                except OverflowError:
                    text = tiebreak(tb)
                if parent:
                    append(f"{index},{ev.source_lp},{ev.serial},{ev.dest_lp},"
                           f"{ev.timestamp!r},{text},{parent[0]}#{parent[1]}")
                else:
                    append(f"{index},{ev.source_lp},{ev.serial},{ev.dest_lp},"
                           f"{ev.timestamp!r},{text},-")
            yield lines
        yield [f"state,{lp},"
               f"{format_timestamp(value) if isinstance(value, float) else ascii(value)}"
               for lp, value in sorted(self.final_states.items())]

    def _blocks(self):
        """The canonical text as newline-terminated ASCII blocks."""
        for lines in self._chunks():
            if lines:
                yield _encode(lines)

    def canonical_lines(self):
        for lines in self._chunks():
            yield from lines

    def digest(self) -> str:
        return _sha256_hex(self._blocks())

    def write(self, path) -> str:
        """Write the schema tag, then the canonical lines: the digest's input.

        Returns the digest, the SHA-256 of the bytes written after the tag.
        """
        with open(path, "wb") as fh:
            fh.write(TRACE_SCHEMA.encode("ascii") + b"\n")
            return _sha256_hex(self._blocks(), fh)

    def write_summary(self, path, spec, metrics: dict | None, digest: str) -> None:
        """Write the run summary: the RunSpec that produced this trace, the
        generator, the committed count, the final states, ``digest`` (this
        trace's digest) and ``metrics`` (None for a sequential run)."""
        summary = {
            "schema": SUMMARY_SCHEMA,
            "spec": spec.to_dict(),
            "generator": GENERATOR_NAME,
            "generator_version": GENERATOR_VERSION,
            "net_events": len(self.committed),
            "final_states": {str(lp): self.final_states[lp] for lp in sorted(self.final_states)},
            "digest": digest,
            "metrics": metrics,
        }
        with open(path, "w", encoding="ascii") as fh:
            json.dump(summary, fh, indent=2, sort_keys=True)
            fh.write("\n")


def _encode(lines: list) -> bytes:
    """``lines`` as one ASCII block, each line terminated by a newline."""
    return ("\n".join(lines) + "\n").encode("ascii")


def _sha256_hex(blocks, sink=None) -> str:
    """SHA-256 hex digest of the concatenated ``blocks``; each block is also
    written to the binary file ``sink`` if one is given."""
    h = hashlib.sha256()
    for block in blocks:
        h.update(block)
        if sink is not None:
            sink.write(block)
    return h.hexdigest()


def digest_lines(lines) -> str:
    """SHA-256 hex digest of ``lines``, each terminated by a newline."""
    it = iter(lines)
    # iter(callable, sentinel): CHUNK-line lists until the lines run out
    return _sha256_hex(_encode(chunk) for chunk in iter(lambda: list(islice(it, CHUNK)), []))


def read_trace(path) -> list:
    """The canonical lines of a file written by ``Trace.write``.

    Raises ConfigError unless the first line is the schema tag and every
    line is newline-terminated ASCII, so that ``digest_lines`` of the result
    is the SHA-256 of the file's bytes after the tag.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    tag, newline, body = data.partition(b"\n")
    if tag != TRACE_SCHEMA.encode() or not newline:
        raise ConfigError(
            f"{path}: first line {tag[:40]!r} is not the schema tag {TRACE_SCHEMA}")
    try:
        lines = body.decode("ascii").split("\n")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not ASCII text: {exc}") from exc
    if lines.pop():
        raise ConfigError(f"{path}: last line is not newline-terminated")
    return lines


def first_divergence(lines_a, lines_b):
    """Index of the first differing canonical line; None if all are equal.

    Commit lines come before the final states, so an index inside the commit
    stream is the commit index of the first differing event.
    """
    for index, (a, b) in enumerate(zip_longest(lines_a, lines_b)):
        if a != b:
            return index
    return None
