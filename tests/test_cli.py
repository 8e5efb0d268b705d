"""Command line behavior: subcommands, config files, exit codes."""

import argparse
import hashlib
import json
import os
import re
import shlex
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from tiewarp import cli
from tiewarp.cli import load_config, main
from tiewarp.errors import ConfigError
from tiewarp.harness import RunSpec, execute, run_fairness, summary, verify_determinism
from tiewarp.kernel_optimistic import OptimisticKernel
from tiewarp.kernel_seq import SequentialKernel
from tiewarp.models import Emit
from tiewarp.timebase import MODE_NAMES, OrderingMode
from tiewarp.trace import CHUNK, TRACE_SCHEMA, Event, Trace, first_divergence, read_trace

from signature_oracle import audit_trace

RUN_TIES = ["run", "--model", "event-ties", "--mode", "lex", "--n-lps", "5",
            "--end-time", "3", "--chain-length", "2", "--seed", "9"]


def digest_from(output: str) -> str:
    for line in output.splitlines():
        if line.startswith("trace digest: "):
            return line.split(": ", 1)[1]
    raise AssertionError(f"no digest line in {output!r}")


def test_run_prints_digest_and_count(capsys):
    assert main(RUN_TIES) == 0
    out = capsys.readouterr().out
    assert "net events: 30" in out  # 5 lps * 3 steps * chain 2
    assert len(digest_from(out)) == 64


def test_run_without_flags_runs_the_default_spec(capsys):
    assert main(["run"]) == 0
    assert digest_from(capsys.readouterr().out) == execute(RunSpec())[0].digest()


def test_run_parallel_prints_metrics_and_matches_sequential(capsys):
    assert main(RUN_TIES) == 0
    seq_digest = digest_from(capsys.readouterr().out)
    assert main(RUN_TIES + ["--workers", "4", "--chaos-seed", "2"]) == 0
    out = capsys.readouterr().out
    assert digest_from(out) == seq_digest
    assert "rollbacks:" in out and "efficiency:" in out


def test_run_writes_trace_and_summary(tmp_path, capsys):
    trace_path = tmp_path / "trail.txt"
    summary_path = tmp_path / "summary.json"
    code = main(RUN_TIES + ["--trace-out", str(trace_path),
                            "--summary-out", str(summary_path)])
    assert code == 0
    out = capsys.readouterr().out
    lines, _ = read_trace(trace_path)
    assert sum(not line.startswith("state,") for line in lines) == 30
    summary = json.loads(summary_path.read_text())
    assert summary["digest"] == digest_from(out)
    assert summary["net_events"] == 30
    assert summary["spec"]["mode"] == "lex"


@pytest.mark.parametrize("workers", ("1", "4"))
def test_summary_spec_reproduces_the_run(tmp_path, capsys, workers):
    # a summary is a complete run record: its spec alone reruns the run,
    # in the library and, as a config file, through the CLI
    path = tmp_path / "summary.json"
    assert main(RUN_TIES + ["--workers", workers, "--chaos-seed", "3",
                            "--summary-out", str(path)]) == 0
    out = capsys.readouterr().out
    summary = json.loads(path.read_text())
    assert summary["schema"] == "tiewarp.summary/2"
    assert summary["spec"]["workers"] == int(workers)
    trace, metrics = execute(RunSpec(**summary["spec"]))
    assert trace.digest() == summary["digest"] == digest_from(out)
    assert metrics == summary["metrics"]
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(summary["spec"]))
    assert main(["run", "--config", str(spec_path)]) == 0
    replayed = capsys.readouterr().out
    assert replayed.splitlines() == out.splitlines()[:-1]  # no "summary written"
    assert digest_from(replayed) == summary["digest"]


# what each command writes: its arguments before the output path, the flag
# naming that path last, and the schema of the record it writes
RECORD_COMMANDS = {
    "run": ([*RUN_TIES, "--workers", "3", "--summary-out"], "tiewarp.summary/2"),
    "verify-determinism": (["verify-determinism", *RUN_TIES[1:], "--workers-list", "1,2",
                            "--chaos-seeds", "0,1", "--repeats", "1", "--json-out"],
                           "tiewarp.determinism/2"),
    "fairness": (["fairness", "--mode", "additive", "--depth", "1", "--samples", "200",
                  "--base-seed", "3", "--json-out"], "tiewarp.fairness/1"),
}

# each schema's keys, as they stood when the records became plain dicts
RECORD_KEYS = {
    "tiewarp.summary/2": {"schema", "spec", "generator", "generator_version", "net_events",
                          "final_states", "digest", "metrics"},
    "tiewarp.determinism/2": {"schema", "spec", "reference", "cells", "distinct_digests",
                              "faults", "verdict"},
    "tiewarp.fairness/1": {"schema", "mode", "depth", "samples", "successes", "p_hat",
                           "expected", "half_width", "within"},
}


def harness_record(command: str) -> dict:
    """The record ``harness`` builds for the inputs of RECORD_COMMANDS[command]."""
    spec = RunSpec(model="event-ties", mode="lex", n_lps=5, end_time=3.0, chain_length=2,
                   seed=9)
    if command == "run":
        spec = replace(spec, workers=3)
        trace, metrics = execute(spec)
        return summary(spec, trace, metrics, trace.digest())
    if command == "verify-determinism":
        return verify_determinism(spec, workers=(1, 2), chaos_seeds=(0, 1), repeats=1)
    return run_fairness("additive", 1, 200, base_seed=3)


@pytest.mark.parametrize("command", RECORD_COMMANDS)
def test_every_record_is_written_by_one_writer_as_sorted_ascii_json(
        tmp_path, capsys, monkeypatch, command):
    written = []
    write = cli.write_record
    monkeypatch.setattr(cli, "write_record",
                        lambda path, record: written.append(record) or write(path, record))
    args, schema = RECORD_COMMANDS[command]
    path = tmp_path / "record.json"
    assert main([*args, str(path)]) == 0
    capsys.readouterr()
    record = harness_record(command)
    assert written == [record]
    assert path.read_bytes() == (json.dumps(record, indent=2, sort_keys=True)
                                 + "\n").encode("ascii")
    assert record["schema"] == schema and set(record) == RECORD_KEYS[schema]


def test_compare_prints_the_sha256_of_the_bytes_after_the_tag(tmp_path, capsys):
    full, tag_only = tmp_path / "full.txt", tmp_path / "tag-only.txt"
    assert main(RUN_TIES + ["--trace-out", str(full)]) == 0
    Trace().write(tag_only)
    assert tag_only.read_bytes() == TRACE_SCHEMA.encode("ascii") + b"\n"
    capsys.readouterr()
    digests = {path: hashlib.sha256(path.read_bytes().partition(b"\n")[2]).hexdigest()
               for path in (full, tag_only)}
    assert digests[tag_only] == ("e3b0c44298fc1c149afbf4c8996fb924"
                                 "27ae41e4649b934ca495991b7852b855")
    for a, b in ((full, full), (tag_only, tag_only), (full, tag_only), (tag_only, full)):
        assert main(["compare", str(a), str(b)]) == (0 if a == b else 1)
        out = capsys.readouterr().out.splitlines()
        assert out[:2] == [f"a: {digests[a]}  {a}", f"b: {digests[b]}  {b}"]
        if a == tag_only == b:
            assert out[2] == "identical: 0 canonical lines"


def test_compare_identical_and_divergent(tmp_path, capsys):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    c = tmp_path / "c.txt"
    main(RUN_TIES + ["--trace-out", str(a)])
    main(RUN_TIES + ["--trace-out", str(b)])
    main(RUN_TIES[:-1] + ["10", "--trace-out", str(c)])  # different seed
    capsys.readouterr()
    assert main(["compare", str(a), str(b)]) == 0
    assert "identical: 35 canonical lines" in capsys.readouterr().out
    assert main(["compare", str(a), str(c)]) == 1
    assert "traces differ at canonical line" in capsys.readouterr().out


def test_trace_file_hashes_to_the_printed_digest(tmp_path, capsys):
    path = tmp_path / "trail.txt"
    assert main(RUN_TIES + ["--workers", "3", "--trace-out", str(path)]) == 0
    tag, _, body = path.read_bytes().partition(b"\n")
    assert tag.decode() == TRACE_SCHEMA == "tiewarp.trace/2"
    assert hashlib.sha256(body).hexdigest() == digest_from(capsys.readouterr().out)


def altered(ev, **changes):
    fields = {name: getattr(ev, name) for name in Event.__slots__}
    fields.update(changes)
    return Event(**fields)


def test_compare_sees_everything_the_digest_covers(tmp_path, capsys):
    spec = RunSpec(model="event-ties", mode="lex", n_lps=5, end_time=3.0,
                   chain_length=2, seed=9)
    trace, _ = execute(spec)
    original = tmp_path / "original.txt"
    trace.write(original)
    index = next(i for i, ev in enumerate(trace.committed) if ev.parent_lp is not None)
    ev = trace.committed[index]
    for name in ("source-lp", "parent", "final-state"):
        copy, _ = execute(spec)
        if name == "final-state":
            copy.final_states[1] += 1
            where = len(trace.committed) + 1  # the second state line
        else:
            change = ({"source_lp": (ev.source_lp + 1) % 5} if name == "source-lp"
                      else {"parent_serial": ev.parent_serial + 1})
            copy.committed[index] = altered(ev, **change)
            where = index
        assert copy.digest() != trace.digest(), name
        path = tmp_path / f"{name}.txt"
        copy.write(path)
        assert first_divergence(read_trace(original)[0], read_trace(path)[0]) == where
        assert main(["compare", str(original), str(path)]) == 1, name
        out = capsys.readouterr().out
        assert f"a: {trace.digest()}" in out and f"b: {copy.digest()}" in out
        assert f"traces differ at canonical line {where}" in out


class AccentedStates:
    """Two LPs tick once at 1; each one's final state is the string "é"."""

    name = "accented"
    n_lps = 2
    end_time = 1.0

    def initial_state(self, lp_id):
        return "\u00e9"

    def seed_events(self, lp_id, stream):
        return [Emit(lp_id, 1.0)]

    def handle(self, state, event, stream):
        return state, []

    def final_value(self, state):
        return state


def test_final_states_whose_repr_is_not_ascii_are_written_as_ascii(tmp_path, capsys):
    lex = OrderingMode.LEX_SEQUENCE
    seq = SequentialKernel(AccentedStates(), lex, 1).run()
    opt = OptimisticKernel(AccentedStates(), lex, 1, 2).run()
    assert list(seq.canonical_lines())[-1] == "state,1,'\\xe9'"
    a, b = tmp_path / "seq.txt", tmp_path / "opt.txt"
    assert seq.write(a) == seq.digest() == opt.digest() == opt.write(b)
    assert main(["compare", str(a), str(b)]) == 0


def test_compare_rejects_malformed_trace_files(tmp_path, capsys):
    good = tmp_path / "good.txt"
    assert main(RUN_TIES + ["--trace-out", str(good)]) == 0
    text = good.read_text()
    body = text.partition("\n")[2]
    malformed = {
        "old-csv": "commit_index,lp,timestamp,tiebreak,serial\n0,1,1.0,ab,0\n",
        "wrong-schema": "tiewarp.trace/1\n" + body,
        "no-schema": body,
        "empty": "",
        "unterminated": text[:-1],
    }
    capsys.readouterr()
    for name, content in malformed.items():
        path = tmp_path / f"{name}.txt"
        path.write_text(content)
        assert main(["compare", str(good), str(path)]) == 2, name
        assert "config error" in capsys.readouterr().err, name
        with pytest.raises(ConfigError):
            read_trace(path)


def test_verify_determinism_expectations(capsys):
    base = ["verify-determinism", "--model", "event-ties", "--mode", "lex",
            "--n-lps", "4", "--end-time", "3", "--chain-length", "2",
            "--workers-list", "1,2", "--chaos-seeds", "0,1", "--repeats", "1"]
    assert main(base + ["--expect", "deterministic"]) == 0
    out = capsys.readouterr().out
    assert "verdict: deterministic (1 distinct digest(s), 0 fault(s))" in out
    # wrong expectation is a reportable failure, not a crash
    assert main(base + ["--expect", "nondeterministic"]) == 1


def test_verify_determinism_detects_none_mode(tmp_path, capsys):
    report_path = tmp_path / "report.json"
    sweep = ["--workers-list", "2,4", "--chaos-seeds", "0,1,2", "--repeats", "1",
             "--expect", "nondeterministic"]
    code = main(["verify-determinism", "--model", "event-ties", "--mode",
                 "none", "--n-lps", "6", "--end-time", "4", "--chain-length", "2",
                 *sweep, "--json-out", str(report_path)])
    assert code == 0
    out = capsys.readouterr().out
    report = json.loads(report_path.read_text())
    assert report["verdict"] == "nondeterministic"
    assert len(report["cells"]) == 6
    # the report's spec, as a config file, replays the sweep
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(report["spec"]))
    assert main(["verify-determinism", "--config", str(spec_path), *sweep]) == 0
    replayed = capsys.readouterr().out
    assert replayed.splitlines() == out.splitlines()[:-1]  # no "report written"
    assert f"reference (sequential): {report['reference']['digest']}" in replayed
    assert "verdict: nondeterministic " in replayed


@pytest.mark.parametrize("args,error", (
    # sequentially, each of these runs raises; so does every parallel cell
    (["--mode", "naive", "--chain-length", "3"], "CausalityViolation: event "),
    (["--mode", "lex", "--chain-length", "4", "--seq-cap", "2"], "SequenceCapExceeded: "),
    (["--mode", "unbiased-single"], "ZeroOffsetForbidden: "),
), ids=("naive", "seq-cap", "unbiased-single"))
def test_verify_determinism_judges_errors_as_outcomes(tmp_path, capsys, args, error):
    report_path = tmp_path / "report.json"
    code = main(["verify-determinism", "--model", "event-ties", "--n-lps", "6",
                 "--end-time", "4", *args, "--expect", "deterministic",
                 "--json-out", str(report_path)])
    assert code == 0
    assert "verdict: deterministic (0 distinct digest(s), 0 fault(s))" in capsys.readouterr().out
    report = json.loads(report_path.read_text())
    assert report["schema"] == "tiewarp.determinism/2"
    assert report["reference"]["error"].startswith(error)
    assert len(report["cells"]) == 24
    assert all(cell["error"] == report["reference"]["error"] for cell in report["cells"])


@pytest.mark.parametrize("args", (["--workers-list", "0,2"], ["--max-delay", "-1"],
                                  ["--gvt-interval", "0"], ["--seq-cap", "0"]))
def test_verify_determinism_sweep_that_cannot_be_built_is_a_config_error(capsys, args):
    # building a kernel is configuration, not part of a run's outcome
    assert main(["verify-determinism", "--n-lps", "2", "--end-time", "2", *args]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("args", (["--repeats", "0"], ["--chaos-seeds", ","],
                                  ["--workers-list", ""], ["--chaos-seeds", "0,-1"],
                                  ["--seed", str(2 ** 64)]))
def test_verify_determinism_refuses_an_empty_or_aliased_sweep(capsys, args):
    # no cells to compare, or a seed that would run as another seed
    assert main(["verify-determinism", "--n-lps", "2", "--end-time", "2", *args]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("args", (["--max-delay=-1"], ["--gvt-interval", "0"],
                                  ["--workers-list", "0,2"], ["--workers-list", "2,0"],
                                  ["--chaos-seeds=0,-1"]),
                         ids=("max-delay", "gvt-interval", "workers-0-first",
                              "workers-0-last", "chaos-seed"))
def test_verify_determinism_refuses_a_bad_cell_before_any_run(capsys, monkeypatch, args):
    # the sequential reference and the cells before the bad one must not run
    ran = []
    for kernel_class in (SequentialKernel, OptimisticKernel):
        monkeypatch.setattr(kernel_class, "run", lambda self: ran.append(self))
    assert main(["verify-determinism", "--n-lps", "2", "--end-time", "2", *args]) == 2
    assert "config error" in capsys.readouterr().err
    assert ran == []


def test_fairness_subcommand(tmp_path, capsys):
    report_path = tmp_path / "fairness.json"
    code = main(["fairness", "--mode", "lex", "--depth", "1",
                 "--samples", "200", "--strict",
                 "--json-out", str(report_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "expected=0.500000" in out
    report = json.loads(report_path.read_text())
    assert report["within"] is True
    assert report["samples"] == 200


def test_fairness_at_a_depth_past_float_factorials(capsys):
    # 1/(d+2)! is below the smallest float from d = 169; it reads 0
    assert main(["fairness", "--mode", "additive", "--samples", "100",
                 "--depth", "200"]) == 0
    assert "expected=0.000000" in capsys.readouterr().out


@pytest.mark.parametrize("args", (["--mode", "naive"],
                                  ["--mode", "unbiased-single", "--depth", "1"],
                                  ["--mode", "lex", "--depth", "-1"],
                                  # additive's closed form fails below -2
                                  ["--mode", "additive", "--depth", "-3"]))
def test_fairness_without_closed_form_is_a_config_error(capsys, args):
    # --mode offers every mode; run_fairness alone decides which it can run
    assert main(["fairness", *args, "--samples", "200"]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("base_seed", ("-1", str(2 ** 64 - 50)))
def test_fairness_refuses_a_bad_seed_range_before_it_runs(capsys, monkeypatch, base_seed):
    # the first seed is negative, or the 100th is past 64 bits
    ran = []
    monkeypatch.setattr(SequentialKernel, "run", lambda self: ran.append(self))
    assert main(["fairness", "--mode", "lex", "--samples", "100",
                 "--base-seed", base_seed]) == 2
    err = capsys.readouterr().err
    assert "config error: base_seed" in err and "global_seed" not in err
    assert ran == []


def test_bench_subcommand(capsys):
    code = main(["bench", "--model", "phold", "--mode", "additive",
                 "--n-lps", "4", "--end-time", "4"])
    assert code == 0
    assert "events/s=" in capsys.readouterr().out


def test_bench_times_the_kernel_the_spec_describes(capsys, monkeypatch):
    ran = []
    for kernel in (SequentialKernel, OptimisticKernel):
        def timed_run(self, run=kernel.run):
            ran.append(type(self).__name__)
            return run(self)
        monkeypatch.setattr(kernel, "run", timed_run)
    bench = ["bench", "--model", "phold", "--n-lps", "4", "--end-time", "4"]
    assert main(bench + ["--workers", "2", "--chaos-seed", "3"]) == 0
    assert ran == ["OptimisticKernel"]
    assert "workers=2 " in capsys.readouterr().out
    assert main(bench) == 0
    assert ran == ["OptimisticKernel", "SequentialKernel"]
    # the optimistic kernel's own arguments act: this one is refused
    assert main(bench + ["--workers", "2", "--max-delay", "-1"]) == 2
    assert "max_delay must be >= 0" in capsys.readouterr().err


@pytest.mark.parametrize("command", ("verify-determinism", "bench"))
def test_only_run_takes_output_flags(tmp_path, capsys, command):
    args = [command, "--n-lps", "2", "--end-time", "2"]
    for flag in ("--trace-out", "--summary-out"):
        with pytest.raises(SystemExit) as stop:
            main(args + [flag, str(tmp_path / "out")])
        assert stop.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key", ("trace_out", "summary_out", "lps", "end", "chain"))
def test_config_keys_are_run_spec_fields_only(tmp_path, capsys, key):
    # output paths are run flags, and a run parameter has one spelling
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({key: str(tmp_path / "out")}))
    assert main(["run", "--config", str(cfg)]) == 2
    assert f"config error: unknown config keys in {cfg}: ['{key}']" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_exit_code_2_on_config_errors(capsys):
    # model-level validation
    assert main(["run", "--model", "phold", "--mode", "lex", "--n-lps", "0"]) == 2
    # insufficient fairness samples
    assert main(["fairness", "--mode", "lex", "--samples", "50"]) == 2
    # zero-offset model under the single-draw mode
    assert main(["run", "--model", "event-ties", "--mode", "unbiased-single",
                 "--n-lps", "4", "--end-time", "2"]) == 2
    # sequence cap exhaustion
    assert main(["run", "--model", "event-ties-stress", "--mode", "lex",
                 "--n-lps", "2", "--end-time", "2", "--height", "3", "--arity", "2",
                 "--seq-cap", "3"]) == 2
    # non-finite inputs (a NaN end never ends) and caps below one draw,
    # in both kernels
    for args in (["--end-time", "nan"], ["--end-time", "inf"],
                 ["--model", "event-ties", "--end-time", "inf"],
                 ["--model", "event-ties-stress", "--end-time", "nan"],
                 ["--mean-offset", "nan"], ["--mean-offset", "inf"],
                 ["--seq-cap", "0"], ["--seq-cap", "-3", "--workers", "2"]):
        assert main(["run", "--n-lps", "2", *args]) == 2, args
        assert "config error" in capsys.readouterr().err
    capsys.readouterr()


@pytest.mark.parametrize("args", (["--model", "phold", "--chain-length", "3"],
                                  ["--model", "event-ties", "--height", "2"]))
def test_run_rejects_a_parameter_its_model_ignores(capsys, args):
    # or two specs, and two summaries, would describe the same run
    assert main(["run", "--n-lps", "2", "--end-time", "2", *args]) == 2
    assert "config error" in capsys.readouterr().err


def test_config_file_cannot_couple_phold(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text('{"model": "phold", "coupled": true}')
    assert main(["run", "--config", str(cfg)]) == 2
    assert "config error: model 'phold' takes no coupled" in capsys.readouterr().err


def test_phold_rejects_an_end_before_its_seed_events(capsys):
    for end in ("-5", "0.5"):
        assert main(["run", "--model", "phold", "--n-lps", "3", "--end-time", end]) == 2
        assert "config error: end_time must be >= 1" in capsys.readouterr().err
    # the seed events at t = 1 commit at end 1
    assert main(["run", "--model", "phold", "--n-lps", "3", "--end-time", "1"]) == 0
    assert "net events: 3" in capsys.readouterr().out


def test_exit_code_2_on_file_errors(tmp_path, capsys):
    # a missing trace must not exit 1, which compare reserves for divergence
    assert main(["compare", str(tmp_path / "a.txt"), str(tmp_path / "b.txt")]) == 2
    assert "file error" in capsys.readouterr().err
    assert main(["run", "--model", "phold", "--n-lps", "2", "--end-time", "1",
                 "--trace-out", str(tmp_path / "no" / "dir" / "t.txt")]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("args", (["--end", "2"], ["--chain", "3"], ["--see", "3"]),
                         ids=lambda args: args[0])
def test_a_prefix_of_a_flag_is_refused(capsys, args):
    # a flag's name is its only spelling, in every subcommand
    with pytest.raises(SystemExit) as stop:
        main(["run", *args])
    assert stop.value.code == 2
    assert f"unrecognized arguments: {' '.join(args)}" in capsys.readouterr().err
    assert not any(parser.allow_abbrev for parser in subparsers().values())


@pytest.mark.parametrize("unbuffered", (False, True), ids=("buffered", "unbuffered"))
def test_run_into_a_closed_pipe_exits_141_in_silence(unbuffered):
    # as `tiewarp run | head -0` would: the reader is gone before the first
    # line, so a write or the final flush raises BrokenPipeError
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    try:
        result = subprocess.run([sys.executable, "-m", "tiewarp", "run", "--n-lps", "4",
                                 "--end-time", "2"],
                                stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120)
    finally:
        os.close(write_end)
    assert (result.returncode, result.stderr) == (141, b"")


def test_exit_code_3_on_causality_violation(capsys):
    code = main(["run", "--model", "event-ties", "--mode", "naive",
                 "--n-lps", "6", "--end-time", "4", "--chain-length", "3"])
    assert code == 3
    assert "causality violation" in capsys.readouterr().err


def test_exit_code_3_on_causality_violation_in_parallel(capsys):
    code = main(["run", "--model", "event-ties", "--mode", "naive",
                 "--n-lps", "6", "--end-time", "4", "--chain-length", "3", "--workers", "4"])
    assert code == 3
    assert "causality violation" in capsys.readouterr().err


def test_biased_zero_offset_child_is_a_causality_violation_in_parallel(capsys):
    # a zero-offset child whose ruleset identity sorts below its parent's
    # fails the parallel run as it fails the sequential one
    code = main(["run", "--model", "event-ties-stress", "--mode", "biased",
                 "--n-lps", "12", "--remote-prob", "0.9", "--end-time", "1",
                 "--height", "2", "--arity", "2", "--seed", "111", "--workers", "5",
                 "--chaos-seed", "77", "--max-delay", "4", "--gvt-interval", "1"])
    assert code == 3
    assert "causality violation" in capsys.readouterr().err


def events_of(lines):
    """The committed events of a trace file's canonical lines, with the
    fields the causality audit reads in mode none."""
    events = []
    for line in lines:
        if line.startswith("state,"):
            break
        _, source_lp, serial, dest_lp, timestamp, _, parent = line.split(",")
        parent_lp, parent_serial = map(int, parent.split("#")) if parent != "-" else (None, None)
        events.append(Event(None, int(source_lp), int(serial), int(dest_lp),
                            float(timestamp), parent_lp=parent_lp, parent_serial=parent_serial))
    return events


def test_tie_heavy_mode_none_run_completes_causally(tmp_path):
    # a tie-heavy parallel run ends, and its ties commit zero-offset
    # parents before their children
    path = tmp_path / "none.trace"
    code = main(["run", "--model", "event-ties", "--mode", "none", "--n-lps", "12",
                 "--chain-length", "4", "--end-time", "5", "--remote-prob", "0.9", "--seed", "4",
                 "--workers", "6", "--chaos-seed", "2", "--max-delay", "6",
                 "--trace-out", str(path)])
    assert code == 0
    trace = Trace(committed=events_of(read_trace(path)[0]))
    report = audit_trace(trace, "none")
    assert report["violations"] == [] and report["events"] == 240


@pytest.mark.parametrize("outputs", [(), ("--trace-out",), ("--trace-out", "--summary-out")])
def test_run_encodes_the_trace_once(tmp_path, capsys, monkeypatch, outputs):
    passes = []
    chunks = Trace._chunks

    def counted(self):
        passes.append(self)
        return chunks(self)

    monkeypatch.setattr(Trace, "_chunks", counted)
    flags = [arg for flag in outputs for arg in (flag, str(tmp_path / flag.strip("-")))]
    assert main(RUN_TIES + flags) == 0
    assert len(passes) == 1
    capsys.readouterr()


def test_trace_file_body_hashes_to_the_digest_across_chunks(tmp_path, capsys):
    path = tmp_path / "trail.txt"
    assert main(["run", "--model", "phold", "--n-lps", "512", "--end-time", "10", "--seed", "3",
                 "--trace-out", str(path)]) == 0
    digest = digest_from(capsys.readouterr().out)
    tag, body = path.read_bytes().split(b"\n", 1)
    assert tag == TRACE_SCHEMA.encode("ascii")
    lines, read_digest = read_trace(path)
    assert sum(not line.startswith("state,") for line in lines) > CHUNK
    assert hashlib.sha256(body).hexdigest() == digest
    assert read_digest == digest
    spec = RunSpec(model="phold", n_lps=512, end_time=10.0, seed=3)
    assert execute(spec)[0].digest() == digest


def test_json_config_file_and_flag_override(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"model": "event-ties", "mode": "lex",
                               "n_lps": 5, "end_time": 3, "chain_length": 2, "seed": 9}))
    assert main(["run", "--config", str(cfg)]) == 0
    base = digest_from(capsys.readouterr().out)
    assert main(["run", "--config", str(cfg), "--seed", "10"]) == 0
    overridden = digest_from(capsys.readouterr().out)
    assert base != overridden


def test_int_and_float_spellings_give_one_spec(tmp_path, capsys):
    # an int given for a float field is stored as a float, whichever way it
    # was spelled, so the summaries of one run record one spec
    as_json = tmp_path / "run.json"
    as_json.write_text(json.dumps({"end_time": 3, "mean_offset": 2}))
    specs = []
    for options in (["--config", str(as_json)], ["--end-time", "3", "--mean-offset", "2"]):
        out = tmp_path / "summary.json"
        assert main(["run", *options, "--summary-out", str(out)]) == 0
        specs.append(json.dumps(json.loads(out.read_text())["spec"], sort_keys=True))
    capsys.readouterr()
    direct = RunSpec(end_time=3, mean_offset=2).to_dict()
    assert specs == [json.dumps(direct, sort_keys=True)] * 2
    assert direct["end_time"] == 3.0 and type(direct["end_time"]) is float
    assert type(direct["mean_offset"]) is float


def test_config_file_validation(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"mystery-knob": 3}')
    with pytest.raises(ConfigError):
        load_config(str(bad))
    missing = tmp_path / "does-not-exist.json"
    with pytest.raises(ConfigError):
        load_config(str(missing))
    assert main(["run", "--config", str(bad)]) == 2


def test_naive_config_key_is_unknown(tmp_path, capsys):
    # the naive derivation is the ordering mode "naive", not a switch
    cfg = tmp_path / "run.json"
    cfg.write_text('{"mode": "unbiased-single", "naive": true}')
    assert main(["run", "--config", str(cfg)]) == 2
    assert "unknown config keys" in capsys.readouterr().err


@pytest.mark.parametrize("text,message", (
    ('{"n_lps": "abc"}', "n_lps must be int, got 'abc'"),
    ('{"seed": "abc"}', "seed must be int, got 'abc'"),
    ('{"seed": 1.5}', "seed must be int, got 1.5"),
    ('{"n_lps": true}', "n_lps must be int, got True"),
    ('{"coupled": 1}', "coupled must be bool, got 1"),
    ('{"remote_prob": "high"}', "remote_prob must be float | None, got 'high'"),
), ids=("lps-word", "seed-word", "seed-fraction", "lps-bool", "coupled-int",
        "remote-prob-word"))
def test_config_values_of_the_wrong_type_are_config_errors(tmp_path, capsys, text,
                                                           message):
    cfg = tmp_path / "run.json"
    cfg.write_text(text)
    assert main(["run", "--config", str(cfg)]) == 2
    assert f"config error: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("name,text,code,message", (
    ("run.json", '{"n_lps": 2,}', 2, "bad JSON in "),
    ("run.json", "[2, 3]", 2, " must hold a JSON object"),
    # json.loads alone would run seed 5
    ("run.json", '{"seed": 1, "n_lps": 2, "seed": 5}', 2,
     "config error: config keys named twice in {cfg}: ['seed']"),
    # a config is JSON whatever its suffix: a flat line is bad JSON ...
    ("run.cfg", "model = phold\n", 2, "bad JSON in {cfg}"),
    # ... and a JSON object runs
    ("run.JSON", '{"n_lps": 2, "end_time": 2}', 0, " n-lps=2 end-time=2.0 "),
), ids=("bad-json", "json-array", "repeated-key", "flat-cfg", "upper-suffix"))
def test_unreadable_json_configs_are_config_errors(tmp_path, capsys, name, text, code,
                                                    message):
    cfg = tmp_path / name
    cfg.write_text(text)
    assert main(["run", "--config", str(cfg)]) == code
    out, err = capsys.readouterr()
    assert message.format(cfg=cfg) in (err if code else out)


@pytest.mark.parametrize("args,message", (
    (["verify-determinism", "--workers-list", "a,b"],
     "--workers-list expects comma-separated integers"),
    (["run", "--model", "event-ties-stress", "--end-time", "2.5"],
     "stress end_time must be a positive integer"),
    # named as the user typed it, not as a kernel argument
    (["run", "--workers", "0"], "workers must be >= 1"),
), ids=("workers-list-words", "stress-fractional-end", "workers-zero"))
def test_flag_values_a_command_cannot_use_are_config_errors(capsys, args, message):
    assert main([*args, "--n-lps", "2"]) == 2
    assert f"config error: {message}" in capsys.readouterr().err


def test_compare_refuses_a_trace_that_is_not_ascii(tmp_path, capsys):
    good = tmp_path / "good.txt"
    assert main(RUN_TIES + ["--trace-out", str(good)]) == 0
    accented = tmp_path / "accented.txt"
    accented.write_bytes(good.read_bytes().replace(b"\n", "\né".encode(), 1))
    capsys.readouterr()
    assert main(["compare", str(good), str(accented)]) == 2
    assert "not ASCII text" in capsys.readouterr().err


def test_config_keys_and_flags_cover_the_run_schema(tmp_path):
    # a config holds every RunSpec field under its own name
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(RunSpec().to_dict()))
    assert list(load_config(str(cfg))) == list(cli.RUN_FIELDS)
    # every RunSpec field has one flag, its name with "-" for "_", and
    # every run flag lands on a field
    parser = argparse.ArgumentParser()
    cli._add_run_options(parser)
    flags = {action.dest: action.option_strings for action in parser._actions
             if action.dest not in ("help", "config")}
    assert flags == {name: ["--" + name.replace("_", "-")] for name in cli.RUN_FIELDS}


# for each RunSpec field: the flag and its text, and the typed value they
# give; no value is the field's default
FIELD_FLAGS = {
    "model": (["--model", "event-ties-stress"], "event-ties-stress"),
    "mode": (["--mode", "additive"], "additive"),
    "n_lps": (["--n-lps", "7"], 7),
    "end_time": (["--end-time", "3"], 3.0),
    "seed": (["--seed", str(2 ** 64 - 1)], 2 ** 64 - 1),
    "remote_prob": (["--remote-prob", "0.25"], 0.25),
    "chain_length": (["--chain-length", "3"], 3),
    "height": (["--height", "2"], 2),
    "arity": (["--arity", "5"], 5),
    "coupled": (["--coupled"], True),
    "mean_offset": (["--mean-offset", "2"], 2.0),
    "workers": (["--workers", "3"], 3),
    "chaos_seed": (["--chaos-seed", "11"], 11),
    "max_delay": (["--max-delay", "0"], 0),
    "gvt_interval": (["--gvt-interval", "16"], 16),
    "seq_cap": (["--seq-cap", "5"], 5),
}


@pytest.mark.parametrize("name", cli.RUN_FIELDS)
def test_every_run_spec_field_has_a_typed_flag(name):
    argv, value = FIELD_FLAGS[name]
    assert value != getattr(RunSpec(), name)
    args = cli.build_parser().parse_args(["run", *argv])
    assert type(getattr(args, name)) is type(value)
    spec = cli._spec(args)
    assert spec == replace(RunSpec(), **{name: value})
    assert type(getattr(spec, name)) is type(value)


def subparsers() -> dict:
    [sub] = [action for action in cli.build_parser()._actions
             if isinstance(action, argparse._SubParsersAction)]
    return sub.choices


def subcommands():
    return sorted(subparsers())


@pytest.mark.parametrize("command", subcommands())
def test_every_subcommand_help_names_every_run_flag(capsys, command):
    # argparse %-formats each help string only when --help prints it
    with pytest.raises(SystemExit) as stop:
        main([command, "--help"])
    assert stop.value.code == 0
    out = capsys.readouterr().out
    if command in ("run", "verify-determinism", "bench"):
        for argv, _ in FIELD_FLAGS.values():
            assert argv[0] in out
        assert out.count("(default:") == len(cli.RUN_FIELDS)


# The walk below sets each option of each subcommand on top of that
# subcommand's base arguments. The base fairness estimate, 66 of 100, lies
# outside its 3-sigma interval, so --strict acts on it.
GUARD_BASE = {
    "run": [],
    "bench": [],
    "verify-determinism": ["--n-lps", "2", "--end-time", "2", "--workers-list", "2",
                           "--chaos-seeds", "0", "--repeats", "1", "--json-out", "report.json"],
    "fairness": ["--mode", "lex", "--samples", "100", "--base-seed", "1100"],
}
# a non-default value for each option that is not a RunSpec field
OPTION_FLAGS = {
    "config": ["--config", "run.json"],
    "trace_out": ["--trace-out", "trace.txt"],
    "summary_out": ["--summary-out", "summary.json"],
    "workers_list": ["--workers-list", "2,3"],
    "chaos_seeds": ["--chaos-seeds", "0,1"],
    "repeats": ["--repeats", "2"],
    "json_out": ["--json-out", "other.json"],
    "expect": ["--expect", "nondeterministic"],
    "depth": ["--depth", "1"],
    "samples": ["--samples", "101"],
    "base_seed": ["--base-seed", "1101"],
    "strict": ["--strict"],
}


# (subcommand, dest) of every option but --help
OPTIONS = [(command, action.dest) for command, parser in sorted(subparsers().items())
           for action in parser._actions if action.option_strings and action.dest != "help"]


def observe(argv, capsys):
    """What a command shows: its exit code, its output without the timing
    figures, and the files it leaves in the working directory."""
    try:
        code = main(argv)
    except SystemExit as stop:  # argparse refuses with exit 2
        code = stop.code
    out, err = capsys.readouterr()
    files = {}
    for path in sorted(Path.cwd().iterdir()):
        if path.name != "run.json":
            files[path.name] = path.read_bytes()
            path.unlink()
    return code, re.sub(r"seconds=\S+ events/s=\S+", "", out), err, files


@pytest.mark.parametrize("command,dest", OPTIONS, ids=[" ".join(o) for o in OPTIONS])
def test_every_option_is_refused_or_acts(tmp_path, monkeypatch, capsys, command, dest):
    # each option a subcommand accepts is refused with exit 2, or changes
    # the spec it records, its report or a file it writes
    monkeypatch.chdir(tmp_path)
    Path("run.json").write_text('{"seed": 5}')
    flag = FIELD_FLAGS[dest][0] if dest in FIELD_FLAGS else OPTION_FLAGS[dest]
    base = observe([command, *GUARD_BASE[command]], capsys)
    assert base[0] == 0
    changed = observe([command, *GUARD_BASE[command], *flag], capsys)
    assert (changed[0] == 2 and "error" in changed[2]) or changed != base


ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def readme_cli_commands():
    readme = README.read_text()
    block = re.search(r"## CLI\n\n```\n(.*?)```", readme, re.S).group(1)
    text = block.replace("\\\n", " ")
    return [shlex.split(line)[1:] for line in text.splitlines()
            if line.startswith("tiewarp ")]


def option_strings() -> set:
    return {flag for parser in subparsers().values()
            for action in parser._actions for flag in action.option_strings}


@pytest.mark.parametrize("argv", readme_cli_commands(), ids=lambda argv: argv[0])
def test_readme_cli_commands_parse(argv):
    # parse only, nothing is run: a renamed or removed flag fails here, and
    # so does an abbreviation argparse would accept, such as --end
    args = cli.build_parser().parse_args(argv)
    assert args.command == argv[0]
    flags = {arg for arg in argv if arg.startswith("--")}
    assert flags <= option_strings()


def test_readme_prose_names_exact_flags():
    # each flag in a backticked span outside the fenced blocks
    prose = re.sub(r"^```.*?^```", "", README.read_text(), flags=re.S | re.M)
    named = {flag for span in re.findall(r"`([^`]+)`", prose)
             for flag in re.findall(r"(?<![\w-])--[a-z][a-z-]*", span)}
    assert named and named <= option_strings()


def readme_python_blocks():
    return re.findall(r"^```python\n(.*?)^```", README.read_text(), re.S | re.M)


@pytest.mark.parametrize("block", readme_python_blocks())
def test_readme_python_blocks_run(block):
    # each block runs on its own, so a renamed or removed name fails here
    exec(compile(block, str(README), "exec"), {"__name__": "readme"})


def test_readme_has_a_python_block():
    assert readme_python_blocks()


def test_readme_mode_table_lists_every_mode():
    section = re.search(r"## Ordering modes\n(.*?)\n## ", README.read_text(), re.S)
    rows = re.findall(r"^\| `([^`]+)` \|", section.group(1), re.M)
    assert rows == list(MODE_NAMES)
