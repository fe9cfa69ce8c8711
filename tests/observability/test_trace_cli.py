"""`repro run --with trace`: exit-code propagation, trace-on-failure, and
the usage errors of the one observer wrapper."""

import json

import pytest

import repro.__main__ as cli
from repro.__main__ import main as repro_main
from repro.chaos.replay import load_trace
from repro.exceptions import BarrierDivergenceError, SlmRaceError


def _run_trace(out, *command):
    return repro_main(
        ["run", "--with", "trace", "--trace-out", str(out), "--no-summary", *command]
    )


class TestExitCodePropagation:
    def test_successful_command_returns_zero(self, tmp_path, capsys):
        out = tmp_path / "ok.json"
        code = _run_trace(out, "stencil", "--sizes", "16", "--nb-solve", "2")
        assert code == 0
        assert out.exists()
        events = json.loads(out.read_text())["traceEvents"]
        assert events
        assert capsys.readouterr().out.rstrip().splitlines()[-1].startswith(
            "trace written to"
        )

    def test_argparse_error_propagates_nonzero(self, tmp_path, capsys):
        out = tmp_path / "fail.json"
        code = _run_trace(out, "stencil", "--sizes", "notanint")
        assert code == 2  # argparse usage-error code, propagated not swallowed
        captured = capsys.readouterr()
        assert "exited 2" in captured.err

    def test_trace_written_even_when_wrapped_command_fails(self, tmp_path, capsys):
        out = tmp_path / "fail.json"
        code = _run_trace(out, "stencil", "--sizes", "notanint")
        assert code != 0
        assert out.exists()  # the partial trace survives the failure
        json.loads(out.read_text())  # and is valid JSON

    def test_unknown_wrapped_command_propagates(self, tmp_path, capsys):
        out = tmp_path / "unknown.json"
        code = _run_trace(out, "no-such-command")
        assert code == 2
        assert out.exists()

    @pytest.mark.parametrize(
        "error, shown",
        [
            (SlmRaceError("[sanitizer:slm-race] injected race"), "injected race"),
            (BarrierDivergenceError("injected divergence"), "injected divergence"),
            (RuntimeError("injected crash"), "Traceback"),
        ],
    )
    def test_exception_in_command_reports_and_exits_one(
        self, tmp_path, capsys, monkeypatch, error, shown
    ):
        def crash(_args):
            raise error

        monkeypatch.setattr(cli, "_cmd_features", crash)
        out = tmp_path / "crash.json"
        code = _run_trace(out, "features")
        assert code == 1
        captured = capsys.readouterr()
        assert shown in captured.err
        assert "warning: wrapped command exited 1" in captured.err
        assert "trace written to" in captured.out
        assert out.exists()

    def test_string_system_exit_prints_message_and_exits_one(
        self, tmp_path, capsys, monkeypatch
    ):
        def refuse(_args):
            raise SystemExit("repro features: refused")

        monkeypatch.setattr(cli, "_cmd_features", refuse)
        code = _run_trace(tmp_path / "exit.json", "features")
        assert code == 1
        assert "repro features: refused" in capsys.readouterr().err


class TestObserverOptions:
    def test_trace_out_does_not_collide_with_the_commands_option(self, tmp_path, capsys):
        """``--trace-out`` before the command goes to the tracer; the one
        after it stays with ``chaos replay``, which saves its items."""
        chrome = tmp_path / "run_trace.json"
        items = tmp_path / "replay_items.jsonl"
        code = repro_main(
            [
                "run", "--with", "trace", "--trace-out", str(chrome), "--no-summary",
                "--", "chaos", "replay", "--requests", "8", "--size", "8",
                "--trace-out", str(items),
            ]
        )
        assert code == 0
        assert json.loads(chrome.read_text())["traceEvents"]
        assert len(load_trace(items)) == 8

    def test_jsonl_out_writes_the_spans(self, tmp_path, capsys):
        jsonl = tmp_path / "spans.jsonl"
        code = repro_main(
            [
                "run", "--with", "trace", "--trace-out", str(tmp_path / "t.json"),
                "--jsonl-out", str(jsonl), "--no-summary", "tables",
            ]
        )
        assert code == 0
        assert jsonl.exists()


class TestUsage:
    def test_trace_without_command_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            repro_main(["run", "--with", "trace"])
        assert exc.value.code == 2

    def test_trace_of_trace_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            repro_main(["run", "--with", "trace", "run", "--with", "trace", "stencil"])
        assert exc.value.code == 2
        assert "run cannot wrap run" in capsys.readouterr().err

    def test_unknown_observer_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            repro_main(["run", "--with", "trace,bogus", "tables"])
        assert exc.value.code == 2
        assert "--with" in capsys.readouterr().err

    def test_with_is_required(self, capsys):
        with pytest.raises(SystemExit) as exc:
            repro_main(["run", "tables"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "option, observer",
        [
            (["--trace-out", "t.json"], "trace"),
            (["--jsonl-out", "t.jsonl"], "trace"),
            (["--no-summary"], "trace"),
            (["--slo-threshold-ms", "100"], "slo"),
            (["--slo-specs", "slos.json"], "slo"),
            (["--slo-events-out", "e.jsonl"], "slo"),
            (["--fault-seed", "3"], "chaos"),
        ],
    )
    def test_observer_option_without_its_observer_is_usage_error(
        self, capsys, option, observer
    ):
        with pytest.raises(SystemExit) as exc:
            repro_main(["run", "--with", "profile", *option, "tables"])
        assert exc.value.code == 2
        assert f"needs --with {observer}" in capsys.readouterr().err

    def test_old_trace_spelling_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            repro_main(["trace", "stencil"])
        assert exc.value.code == 2
        assert "invalid choice: 'trace'" in capsys.readouterr().err
