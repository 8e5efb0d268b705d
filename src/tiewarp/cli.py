"""Command line front end.

Subcommands:
  run                  execute one simulation, optionally writing trace/summary
  verify-determinism   sweep workers x chaos seeds and compare run outcomes
  fairness             estimate tie-ordering probabilities against closed forms
  bench                time one run of the kernel the run options describe
  compare              check two trace files for digest identity

Exit codes: 0 success, 2 configuration error, 3 causality violation, and
141, as for a process that SIGPIPE ended, when the reader of stdout closed
it; verify-determinism reports an error raised while running as an outcome
instead. Flags, config keys and the recorded ``spec`` all use RunSpec's
field names: a config file, one JSON object of RunSpec fields whatever its
suffix, is exactly the ``spec`` a summary or determinism report records.
Explicit flags override it, and a key named twice is refused. A flag's name
is its only spelling: no prefix of it is taken. Every JSON file a command
writes (``--summary-out``, ``--json-out``) is a record ``harness`` built,
written by ``write_record``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields
from pathlib import Path

from .errors import CausalityViolation, ConfigError
from .harness import (
    FIELD_TYPES,
    RunSpec,
    benchmark,
    execute,
    run_fairness,
    summary,
    verify_determinism,
)
from .models import MODEL_NAMES
from .timebase import MODE_NAMES
from .trace import first_divergence, read_trace

RUN_FIELDS = tuple(f.name for f in fields(RunSpec))
_CHOICES = {"model": MODEL_NAMES, "mode": MODE_NAMES}


def load_config(path: str) -> dict:
    """Read a config file, a JSON object of RunSpec fields, whatever its suffix."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc

    def unique(pairs: list) -> dict:
        # json.loads alone would keep the last value of a repeated key
        keys = [key for key, _ in pairs]
        twice = sorted({key for key in keys if keys.count(key) > 1})
        if twice:
            raise ConfigError(f"config keys named twice in {path}: {twice}")
        return dict(pairs)

    try:
        data = json.loads(text, object_pairs_hook=unique)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"bad JSON in {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config {path} must hold a JSON object")
    unknown = set(data) - set(RUN_FIELDS)
    if unknown:
        raise ConfigError(f"unknown config keys in {path}: {sorted(unknown)}")
    return data


def write_record(path: str, record: dict) -> None:
    """Write a run record, one of ``harness``'s schema-tagged dicts: ASCII
    JSON with sorted keys, indented by 2, and a final newline."""
    Path(path).write_text(json.dumps(record, indent=2, sort_keys=True) + "\n",
                          encoding="ascii")


def _add_run_options(parser: argparse.ArgumentParser) -> None:
    """--config and one flag per RunSpec field, named after it; defaults
    stay None, so only typed flags override a config."""
    parser.add_argument("--config", help="config file: a JSON object of RunSpec fields")
    for f in fields(RunSpec):
        allowed = FIELD_TYPES[f.name]
        if bool in allowed:
            kind = {"action": "store_const", "const": True}
        else:
            kind = {"type": float if float in allowed else int if int in allowed else str,
                    "choices": _CHOICES.get(f.name)}
        default = "the model's" if f.default is None else f.default
        parser.add_argument("--" + f.name.replace("_", "-"),
                            help=f"{f.metadata['help']} (default: {default})", **kind)


def _spec(args: argparse.Namespace) -> RunSpec:
    """The run's spec: RunSpec's defaults, then the config file, then the
    flags the user typed."""
    opts = load_config(args.config) if args.config else {}
    opts.update({name: getattr(args, name) for name in RUN_FIELDS
                 if getattr(args, name) is not None})
    return RunSpec(**opts)


def _spec_line(spec: RunSpec) -> str:
    """Every set field of the spec, named as its flag: what the command ran."""
    return " ".join(f"{name.replace('_', '-')}={value}"
                    for name, value in spec.to_dict().items() if value is not None)


def _cmd_run(args: argparse.Namespace) -> int:
    spec = _spec(args)
    trace, metrics = execute(spec)
    print(_spec_line(spec))
    print(f"net events: {len(trace.committed)}")
    # one encoder pass: writing the trace file also hashes it
    digest = trace.write(args.trace_out) if args.trace_out else trace.digest()
    print(f"trace digest: {digest}")
    if metrics is not None:
        print(f"rollbacks: {metrics['rollbacks']}  "
              f"rolled back events: {metrics['rolled_back']}  "
              f"anti-messages: {metrics['antis_sent']}  "
              f"efficiency: {metrics['efficiency']:.3f}")
    if args.trace_out:
        print(f"trace written: {args.trace_out}")
    if args.summary_out:
        write_record(args.summary_out, summary(spec, trace, metrics, digest))
        print(f"summary written: {args.summary_out}")
    return 0


def _parse_int_list(text: str, flag: str) -> tuple:
    try:
        return tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError as exc:
        raise ConfigError(f"{flag} expects comma-separated integers") from exc


def _cmd_verify(args: argparse.Namespace) -> int:
    spec = _spec(args)
    swept = [name for name in ("workers", "chaos_seed")
             if getattr(spec, name) != getattr(RunSpec, name)]
    if swept:
        raise ConfigError(f"verify-determinism sweeps --workers-list and --chaos-seeds; "
                          f"remove {', '.join(swept)}")
    workers = _parse_int_list(args.workers_list, "--workers-list")
    chaos_seeds = _parse_int_list(args.chaos_seeds, "--chaos-seeds")
    report = verify_determinism(spec, workers=workers,
                                chaos_seeds=chaos_seeds, repeats=args.repeats)
    [reference] = report["reference"].values()  # the digest or the error
    print(f"reference (sequential): {reference}")
    for cell in report["cells"]:
        outcome = cell.get("digest") or cell["error"]
        mark = "ok" if outcome == reference else "!!"
        print(f"  [{mark}] workers={cell['workers']} "
              f"chaos={cell['chaos_seed']} repeat={cell['repeat']}: {outcome}")
    print(f"verdict: {report['verdict']} "
          f"({len(report['distinct_digests'])} distinct digest(s), "
          f"{report['faults']} fault(s))")
    if args.json_out:
        write_record(args.json_out, report)
        print(f"report written: {args.json_out}")
    if args.expect and report["verdict"] != args.expect:
        print(f"expected verdict {args.expect!r}, got {report['verdict']!r}",
              file=sys.stderr)
        return 1
    return 0


def _cmd_fairness(args: argparse.Namespace) -> int:
    report = run_fairness(args.mode, args.depth, args.samples,
                          base_seed=args.base_seed)
    expected, half_width = report["expected"], report["half_width"]
    print(f"mode={report['mode']} depth={report['depth']} samples={report['samples']}")
    print(f"p_hat={report['p_hat']:.4f} ({report['successes']}/{report['samples']})")
    print(f"expected={expected:.6f} "
          f"interval=[{expected - half_width:.4f}, {expected + half_width:.4f}] "
          f"within={report['within']}")
    if args.json_out:
        write_record(args.json_out, report)
        print(f"report written: {args.json_out}")
    if args.strict and not report["within"]:
        return 1
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    spec = _spec(args)
    result = benchmark(spec)
    print(_spec_line(spec))
    print(f"events={result['events']} seconds={result['seconds']:.3f} "
          f"events/s={result['events_per_second']:.0f}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    lines_a, digest_a = read_trace(args.trace_a)
    lines_b, digest_b = read_trace(args.trace_b)
    print(f"a: {digest_a}  {args.trace_a}")
    print(f"b: {digest_b}  {args.trace_b}")
    where = first_divergence(lines_a, lines_b)
    if where is None:
        print(f"identical: {len(lines_a)} canonical lines")
        return 0
    print(f"traces differ at canonical line {where} "
          f"(lengths {len(lines_a)} vs {len(lines_b)})")
    for label, lines in (("a", lines_a), ("b", lines_b)):
        print(f"  {label}: {lines[where] if where < len(lines) else '<absent>'}")
    return 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tiewarp",
        description="Optimistic parallel discrete-event simulation with "
                    "deterministic random tie-breaking.")
    sub = parser.add_subparsers(dest="command", required=True)
    # allow_abbrev=False on each subcommand: a flag's name is its only
    # spelling, and no prefix of it is taken
    p_run = sub.add_parser("run", help="execute one simulation", allow_abbrev=False)
    _add_run_options(p_run)
    p_run.add_argument("--trace-out", help="write the trace file (schema tag, then "
                                           "the digest's canonical lines) here")
    p_run.add_argument("--summary-out", help="write run summary JSON here")
    p_run.set_defaults(func=_cmd_run)

    p_ver = sub.add_parser("verify-determinism",
                           help="compare run outcomes across workers and chaos seeds",
                           allow_abbrev=False)
    _add_run_options(p_ver)
    p_ver.add_argument("--workers-list", default="1,2,4,8", dest="workers_list")
    p_ver.add_argument("--chaos-seeds", default="0,1,2", dest="chaos_seeds")
    p_ver.add_argument("--repeats", type=int, default=2)
    p_ver.add_argument("--json-out", dest="json_out")
    p_ver.add_argument("--expect",
                       choices=("deterministic", "nondeterministic", "faulted"))
    p_ver.set_defaults(func=_cmd_verify)

    p_fair = sub.add_parser("fairness",
                            help="estimate tie-ordering probabilities", allow_abbrev=False)
    p_fair.add_argument("--mode", required=True, choices=MODE_NAMES)
    p_fair.add_argument("--depth", type=int, default=0,
                        help="zero-offset chain depth of the target event")
    p_fair.add_argument("--samples", type=int, default=1000)
    p_fair.add_argument("--base-seed", type=int, default=0, dest="base_seed")
    p_fair.add_argument("--json-out", dest="json_out")
    p_fair.add_argument("--strict", action="store_true",
                        help="exit 1 if outside the expected interval")
    p_fair.set_defaults(func=_cmd_fairness)

    p_bench = sub.add_parser("bench", help="time one run", allow_abbrev=False)
    _add_run_options(p_bench)
    p_bench.set_defaults(func=_cmd_bench)

    p_cmp = sub.add_parser("compare", help="check two trace files for digest identity",
                           allow_abbrev=False)
    p_cmp.add_argument("trace_a")
    p_cmp.add_argument("trace_b")
    p_cmp.set_defaults(func=_cmd_compare)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        # flushed here, so a closed reader raises inside this try
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader of stdout went away (say, `tiewarp run | head -1`):
        # point stdout at the null device so the flush at exit cannot raise
        # again, and exit as a shell reports a process that SIGPIPE ended
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except CausalityViolation as exc:
        print(f"causality violation: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        # missing trace inputs, unwritable --*-out paths; keep exit 1 for
        # "traces differ" so scripts can tell the two apart
        print(f"file error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
