"""Command line front end.

Subcommands:
  run                  execute one simulation, optionally writing trace/summary
  verify-determinism   sweep workers x chaos seeds and compare run outcomes
  fairness             estimate tie-ordering probabilities against closed forms
  bench                time one run of the kernel the run options describe
  compare              check two trace files for digest identity

Exit codes: 0 success, 2 configuration error, 3 causality violation;
verify-determinism reports an error raised while running as an outcome
instead. A config file (JSON or flat "key = value" lines) can
supply any run option; explicit flags override it.
"""

from __future__ import annotations

import argparse
import json
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
    verify_determinism,
)
from .models import MODEL_NAMES
from .timebase import MODE_NAMES
from .trace import digest_lines, first_divergence, read_trace

RUN_FIELDS = tuple(f.name for f in fields(RunSpec))
# config keys and flags spelled differently from their RunSpec field
FIELD_OF_KEY = {"lps": "n_lps", "end": "end_time", "chain": "chain_length"}
_KEY_OF_FIELD = {field: key for key, field in FIELD_OF_KEY.items()}
# run options that are output paths, not part of the spec
OUTPUT_KEYS = ("trace_out", "summary_out")
CONFIG_KEYS = tuple(_KEY_OF_FIELD.get(name, name) for name in RUN_FIELDS) + OUTPUT_KEYS
_CHOICES = {"model": MODEL_NAMES, "mode": MODE_NAMES}


def _parse_scalar(text: str):
    t = text.strip()
    if len(t) >= 2 and t[0] == t[-1] and t[0] in "\"'":
        return t[1:-1]
    low = t.lower()
    if low == "true":
        return True
    if low == "false":
        return False
    try:
        return int(t, 0)
    except ValueError:
        pass
    try:
        return float(t)
    except ValueError:
        pass
    return t


def load_config(path: str) -> dict:
    """Read a config file: JSON object, or flat key = value lines."""
    p = Path(path)
    try:
        text = p.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if p.suffix == ".json":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"bad JSON in {path}: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError(f"config {path} must hold a JSON object")
    else:
        data = {}
        for ln, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise ConfigError(f"{path}:{ln}: expected 'key = value'")
            data[key.strip().replace("-", "_")] = _parse_scalar(value)
    unknown = set(data) - set(CONFIG_KEYS)
    if unknown:
        raise ConfigError(f"unknown config keys in {path}: {sorted(unknown)}")
    return data


def _add_run_options(parser: argparse.ArgumentParser, outputs: bool = True) -> None:
    """One flag per RunSpec field, named after its config key, plus --config
    and, with ``outputs``, the output paths; defaults stay None, so only
    typed flags override a config."""
    parser.add_argument("--config", help="config file (JSON or key = value)")
    for f in fields(RunSpec):
        allowed = FIELD_TYPES[f.name]
        if bool in allowed:
            kind = {"action": "store_const", "const": True}
        else:
            kind = {"type": float if float in allowed else int if int in allowed else str,
                    "choices": _CHOICES.get(f.name)}
        default = "the model's" if f.default is None else f.default
        parser.add_argument("--" + _KEY_OF_FIELD.get(f.name, f.name).replace("_", "-"),
                            dest=f.name, help=f"{f.metadata['help']} (default: {default})",
                            **kind)
    if not outputs:
        return
    parser.add_argument("--trace-out", dest="trace_out",
                        help="write the trace file (schema tag, then the "
                             "digest's canonical lines) here")
    parser.add_argument("--summary-out", dest="summary_out",
                        help="write run summary JSON here")


def _run_options(args: argparse.Namespace) -> tuple[RunSpec, dict]:
    """The run's spec and output paths.

    Values come from RunSpec's defaults, then the config file, then the
    flags the user typed.
    """
    opts = {}
    if args.config:
        opts = {FIELD_OF_KEY.get(key, key): value
                for key, value in load_config(args.config).items()}
    for name in RUN_FIELDS + OUTPUT_KEYS:
        value = getattr(args, name, None)
        if value is not None:
            opts[name] = value
    outputs = {key: opts.pop(key, None) for key in OUTPUT_KEYS}
    for key, path in outputs.items():
        if path is not None and not isinstance(path, str):
            raise ConfigError(f"{key} must be a path string, got {path!r}")
    return RunSpec(**opts), outputs


def _spec(args: argparse.Namespace) -> RunSpec:
    """The spec of a subcommand that writes no outputs; a config naming one is refused."""
    spec, outputs = _run_options(args)
    named = [key for key, path in outputs.items() if path is not None]
    if named:
        raise ConfigError(f"{args.command} writes no run outputs; "
                          f"remove {', '.join(named)} from the config")
    return spec


def _spec_line(spec: RunSpec) -> str:
    """Every set field of the spec, named as its flag: what the command ran."""
    return " ".join(f"{_KEY_OF_FIELD.get(name, name).replace('_', '-')}={value}"
                    for name, value in spec.to_dict().items() if value is not None)


def _cmd_run(args: argparse.Namespace) -> int:
    spec, outputs = _run_options(args)
    trace, metrics = execute(spec)
    print(_spec_line(spec))
    print(f"net events: {len(trace.committed)}")
    # one encoder pass: writing the trace file also hashes it
    digest = trace.write(outputs["trace_out"]) if outputs["trace_out"] else trace.digest()
    print(f"trace digest: {digest}")
    if metrics is not None:
        print(f"rollbacks: {metrics['rollbacks']}  "
              f"rolled back events: {metrics['rolled_back']}  "
              f"anti-messages: {metrics['antis_sent']}  "
              f"efficiency: {metrics['efficiency']:.3f}")
    if outputs["trace_out"]:
        print(f"trace written: {outputs['trace_out']}")
    if outputs["summary_out"]:
        trace.write_summary(outputs["summary_out"], spec, metrics, digest)
        print(f"summary written: {outputs['summary_out']}")
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
        Path(args.json_out).write_text(json.dumps(report, indent=2) + "\n")
        print(f"report written: {args.json_out}")
    if args.expect and report["verdict"] != args.expect:
        print(f"expected verdict {args.expect!r}, got {report['verdict']!r}",
              file=sys.stderr)
        return 1
    return 0


def _cmd_fairness(args: argparse.Namespace) -> int:
    report = run_fairness(args.mode, args.depth, args.samples,
                          base_seed=args.base_seed)
    print(f"mode={report.mode} depth={report.depth} samples={report.samples}")
    print(f"p_hat={report.p_hat:.4f} ({report.successes}/{report.samples})")
    print(f"expected={report.expected:.6f} "
          f"interval=[{report.expected - report.half_width:.4f}, "
          f"{report.expected + report.half_width:.4f}] "
          f"within={report.within}")
    if args.json_out:
        Path(args.json_out).write_text(json.dumps(report.to_dict(), indent=2) + "\n")
        print(f"report written: {args.json_out}")
    if args.strict and not report.within:
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
    lines_a = read_trace(args.trace_a)
    lines_b = read_trace(args.trace_b)
    print(f"a: {digest_lines(lines_a)}  {args.trace_a}")
    print(f"b: {digest_lines(lines_b)}  {args.trace_b}")
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

    p_run = sub.add_parser("run", help="execute one simulation")
    _add_run_options(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_ver = sub.add_parser("verify-determinism",
                           help="compare run outcomes across workers and chaos seeds")
    _add_run_options(p_ver, outputs=False)
    p_ver.add_argument("--workers-list", default="1,2,4,8", dest="workers_list")
    p_ver.add_argument("--chaos-seeds", default="0,1,2", dest="chaos_seeds")
    p_ver.add_argument("--repeats", type=int, default=2)
    p_ver.add_argument("--json-out", dest="json_out")
    p_ver.add_argument("--expect",
                       choices=("deterministic", "nondeterministic", "faulted"))
    p_ver.set_defaults(func=_cmd_verify)

    p_fair = sub.add_parser("fairness",
                            help="estimate tie-ordering probabilities")
    p_fair.add_argument("--mode", required=True, choices=MODE_NAMES)
    p_fair.add_argument("--depth", type=int, default=0,
                        help="zero-offset chain depth of the target event")
    p_fair.add_argument("--samples", type=int, default=1000)
    p_fair.add_argument("--base-seed", type=int, default=0, dest="base_seed")
    p_fair.add_argument("--json-out", dest="json_out")
    p_fair.add_argument("--strict", action="store_true",
                        help="exit 1 if outside the expected interval")
    p_fair.set_defaults(func=_cmd_fairness)

    p_bench = sub.add_parser("bench", help="time one run")
    _add_run_options(p_bench, outputs=False)
    p_bench.set_defaults(func=_cmd_bench)

    p_cmp = sub.add_parser("compare", help="check two trace files for digest identity")
    p_cmp.add_argument("trace_a")
    p_cmp.add_argument("trace_b")
    p_cmp.set_defaults(func=_cmd_compare)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
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
