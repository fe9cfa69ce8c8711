"""``scripts/run_all.py`` runs as its usage line says, without ``PYTHONPATH``."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent.parent

_PROBE = """
import runpy, sys
jobs = dict(runpy.run_path(sys.argv[1])["paper_artifacts"](quick=True))
print(jobs["table1_terminology.txt"]().splitlines()[0])
"""


def test_paper_artifacts_import_the_package_without_pythonpath(tmp_path):
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, str(REPO / "scripts" / "run_all.py")],
        env=env, cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
