"""CLI surface of the sanitizer: selftest / check / diff, ``run --with
sanitize``, and the combination with the tracer (trace still written, exit
code propagated, violation landing on the trace as an instant event).
"""

from __future__ import annotations

import json

import pytest

from repro.__main__ import main


def test_selftest_command_passes(capsys):
    assert main(["sanitize", "selftest"]) == 0
    out = capsys.readouterr().out
    assert "14/14 cases passed" in out


def test_check_command_flags_a_mutant(capsys):
    assert main(["sanitize", "check", "racy-write"]) == 1
    out = capsys.readouterr().out
    assert "slm-race" in out and "buf" in out


def test_check_command_passes_a_clean_kernel(capsys):
    assert main(["sanitize", "check", "clean-reduce"]) == 0
    assert "no violation" in capsys.readouterr().out


def test_check_command_rejects_unknown_case():
    with pytest.raises(SystemExit, match="unknown selftest case"):
        main(["sanitize", "check", "no-such-case"])


def test_sanitize_without_arguments_prints_usage(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sanitize"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage: repro sanitize" in err
    assert "{selftest,check,diff}" in err


def test_wrapped_command_runs_under_sanitizer_and_summarizes(capsys):
    assert main(["run", "--with", "sanitize", "features"]) == 0
    out = capsys.readouterr().out
    assert "sanitizer:" in out
    assert "no violations" in out


def test_diff_command_small_grid_agrees(capsys):
    assert main(["sanitize", "diff", "--batch", "1", "--rows", "8"]) == 0
    out = capsys.readouterr().out
    assert "0 disagreement(s)" in out
    assert "DISAGREE" not in out


def test_trace_of_failing_sanitize_run_still_writes_trace(tmp_path, capsys):
    """A violation under ``run --with trace,sanitize`` propagates the exit
    code *and* the trace (with the violation event) reaches disk."""
    trace_file = tmp_path / "san_trace.json"
    code = main(
        ["run", "--with", "trace,sanitize", "--trace-out", str(trace_file),
         "sanitize", "check", "racy-write"]
    )
    assert code == 1
    captured = capsys.readouterr()
    assert "sanitizer:" in captured.out
    assert "trace written to" in captured.out
    assert "warning: wrapped command exited 1" in captured.err
    assert trace_file.exists()
    payload = json.loads(trace_file.read_text())
    names = {event.get("name") for event in payload["traceEvents"]}
    assert "sanitizer.violation" in names


def test_trace_of_clean_sanitized_command_exits_zero(tmp_path, capsys):
    trace_file = tmp_path / "ok_trace.json"
    code = main(
        ["run", "--with", "trace,sanitize", "--trace-out", str(trace_file), "features"]
    )
    assert code == 0
    assert trace_file.exists()
    payload = json.loads(trace_file.read_text())
    names = {event.get("name") for event in payload["traceEvents"]}
    assert "sanitizer.violation" not in names
