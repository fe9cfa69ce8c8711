"""One fleet, one story: shards write into the fleet's rings.

Every shard is built with the fleet's event log installed and no
recorder of its own, so it emits into ``fleet.events`` and rings into
the one flight recorder installed when the fleet was built; dumping
that recorder hands the postmortem the whole fleet.
"""

import re
import threading

import numpy as np
import scipy.sparse as sp

from repro.__main__ import main
from repro.fleet.config import FleetConfig
from repro.fleet.service import FleetService
from repro.instruments import use
from repro.recorder.recorder import FlightRecorder
from repro.recorder.postmortem import analyze_bundles, load_bundles
from repro.serve import ServeConfig, SolveRequest


def _tridiag(n):
    return sp.diags(
        [np.full(n - 1, -1.0), np.full(n, 2.0), np.full(n - 1, -1.0)],
        offsets=[-1, 0, 1],
        format="csr",
    )


def _fleet_config(replicas=2):
    return FleetConfig(
        initial_replicas=replicas,
        serve=ServeConfig(max_batch_size=4, max_wait_ms=50.0, num_workers=1),
    )


def _requests(count, sizes=(8, 10)):
    # distinct sizes -> distinct BatchKeys; these two hash to different
    # shards of a two-shard ring, so both shards see traffic
    return [
        SolveRequest(
            _tridiag(sizes[i % len(sizes)]),
            np.ones(sizes[i % len(sizes)]),
            solver="cg",
            preconditioner="jacobi",
            tolerance=1e-8,
        )
        for i in range(count)
    ]


class TestFleetRecorders:
    def test_every_shard_shares_the_fleet_recorder(self):
        recorder = FlightRecorder(shard="fleet")
        with use(recorder=recorder):
            with FleetService(_fleet_config()) as fleet:
                shards = fleet.shards()
                assert len(shards) == 2
                for shard in shards:
                    assert shard.service.recorder is recorder
                    assert shard.service.events is fleet.events
                assert fleet.events.recorder is recorder

    def test_scaled_up_shard_shares_fleet_recorder(self):
        """A shard started later, on another thread, still writes into the
        fleet's log and the recorder installed when the fleet was built."""
        recorder = FlightRecorder(shard="fleet")
        with use(recorder=recorder):
            fleet = FleetService(_fleet_config(replicas=1))
        with fleet:
            added = []
            scaler = threading.Thread(target=lambda: added.extend(fleet.scale_up()))
            scaler.start()
            scaler.join(timeout=30.0)
            assert not scaler.is_alive()
            (name,) = added
            (shard,) = [s for s in fleet.shards() if s.name == name]
            assert shard.service.recorder is recorder
            assert shard.service.events is fleet.events

    def test_no_ambient_recorder_means_none(self):
        with FleetService(_fleet_config()) as fleet:
            assert all(s.service.recorder is None for s in fleet.shards())

    def test_solves_and_events_land_in_fleet_rings(self):
        recorder = FlightRecorder(shard="fleet")
        with use(recorder=recorder):
            with FleetService(_fleet_config()) as fleet:
                tickets = [fleet.submit(r) for r in _requests(8)]
                fleet.flush()
                for t in tickets:
                    assert t.result(timeout=30.0).converged
        solved = [ev for ev in fleet.events.events() if ev.type == "request.solved"]
        assert len(solved) == 8
        per_shard = [
            int(s.service.metrics.counter("serve.flushes").value) for s in fleet.shards()
        ]
        assert all(per_shard), per_shard
        assert recorder.flushes_seen == sum(per_shard)

    def test_battery_bundle_holds_every_incident(self, tmp_path, capsys):
        code = main(
            [
                "chaos", "battery", "--requests", "40", "--batch-size", "4",
                "--size", "12", "--shards", "2", "--bundle-dir", str(tmp_path),
                "--dump-bundle",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0, out
        injected = int(re.search(r"PASS: (\d+) faults injected", out).group(1))
        bundles = load_bundles([tmp_path])
        assert sum(len(b["flushes"]) for b in bundles) >= 1
        analysis = analyze_bundles(bundles)
        assert len(analysis["incidents"]) == injected
        assert analysis["attributed_fraction"] == 1.0
