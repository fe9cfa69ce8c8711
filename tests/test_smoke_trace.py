"""Tier-1 wiring for ``scripts/smoke_trace.py`` and ``repro run --with trace``."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

from repro.observability import validate_chrome_trace

REPO_ROOT = Path(__file__).resolve().parents[1]


def test_smoke_trace_script_in_process(tmp_path):
    sys.path.insert(0, str(REPO_ROOT / "scripts"))
    try:
        import smoke_trace
    finally:
        sys.path.pop(0)
    out = tmp_path / "trace_smoke.json"
    assert smoke_trace.main(["--out", str(out)]) == 0
    counts = validate_chrome_trace(out)
    assert counts["kernel_spans"] >= 1
    assert counts["counters"] >= 1


def test_trace_cli_subprocess(tmp_path):
    """The acceptance command: ``python -m repro run --with trace --trace-out ... stencil``."""
    out = tmp_path / "t.json"
    env_src = str(REPO_ROOT / "src")
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "repro",
            "run",
            "--with",
            "trace",
            "--trace-out",
            str(out),
            "--no-summary",
            "stencil",
            "--sizes",
            "16",
            "--nb-solve",
            "2",
        ],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
        env={"PYTHONPATH": env_src, "PATH": "/usr/bin:/bin:/usr/local/bin"},
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert "trace written to" in proc.stdout
    counts = validate_chrome_trace(out)
    assert counts["kernel_spans"] >= 1
