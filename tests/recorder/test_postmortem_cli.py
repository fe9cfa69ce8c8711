"""``repro postmortem {analyze,timeline,diff}`` over real recorder bundles."""

import json

import numpy as np
import pytest

from repro.__main__ import main
from repro.recorder import FlightRecorder
from repro.serve import ServeConfig, SolverService
from repro.workloads.arrivals import make_request, stencil_pattern


@pytest.fixture(scope="module")
def bundles(tmp_path_factory):
    """One recorder dumped before and after a small served workload."""
    out = tmp_path_factory.mktemp("bundles")
    recorder = FlightRecorder(shard="cli")
    before = recorder.dump(out, reason="manual")
    rng = np.random.default_rng(0)
    pattern = stencil_pattern(8)
    config = ServeConfig(max_batch_size=4, num_workers=1)
    with SolverService(config, recorder=recorder) as service:
        tickets = [service.submit(make_request(pattern, rng, 8)) for _ in range(4)]
        for ticket in tickets:
            assert ticket.result(timeout=30.0).converged
    after = recorder.dump(out, reason="manual")
    return before, after


def test_analyze_prints_the_report(bundles, tmp_path, capsys):
    report = tmp_path / "report.md"
    assert main(["postmortem", "analyze", str(bundles[1]), "--out", str(report)]) == 0
    assert capsys.readouterr().out.startswith("# Postmortem analysis")
    assert report.read_text().startswith("# Postmortem analysis")


def test_analyze_json_is_machine_readable(bundles, capsys):
    assert main(["postmortem", "analyze", "--json", str(bundles[1])]) == 0
    assert isinstance(json.loads(capsys.readouterr().out), dict)


def test_timeline_keeps_the_last_events(bundles, capsys):
    assert main(["postmortem", "timeline", "--limit", "5", str(bundles[1])]) == 0
    out = capsys.readouterr().out
    assert out.startswith("# Incident timeline — shards: cli (5 events)")


def test_diff_of_two_bundles(bundles, capsys):
    before, after = bundles
    assert main(["postmortem", "diff", str(before), str(after)]) == 0
    assert capsys.readouterr().out.startswith("# Bundle diff")
