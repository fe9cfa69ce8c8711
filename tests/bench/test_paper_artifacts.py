"""The committed paper tables and figures in ``results/`` match the code.

Regenerates every text artifact of ``scripts/run_all.py`` at full size
(about a second) and compares it with the committed file byte for byte, so
a change that moves an iteration count or a ledger total must refresh
``results/`` in the same change.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent.parent


def _load_run_all():
    spec = importlib.util.spec_from_file_location("run_all", REPO / "scripts" / "run_all.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


ARTIFACTS = _load_run_all().paper_artifacts()


def test_every_committed_table_is_regenerated():
    committed = sorted(path.name for path in (REPO / "results").glob("*.txt"))
    assert sorted(name for name, _ in ARTIFACTS) == committed


@pytest.mark.parametrize("filename, job", ARTIFACTS, ids=[name for name, _ in ARTIFACTS])
def test_committed_artifact_matches_regeneration(filename, job):
    committed = (REPO / "results" / filename).read_text()
    assert job() + "\n" == committed
