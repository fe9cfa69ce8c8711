"""Per-shard black boxes: the fleet's cross-shard postmortem story.

An ambient recorder installed around a fleet becomes one sibling
recorder per replica (same limits, shard name stamped), each shard's
private event log taps its own recorder, and ``dump_recorders`` writes
one bundle per shard that the postmortem analyzer merges.
"""

import threading

import numpy as np
import scipy.sparse as sp

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


def _requests(count, sizes=(8, 9)):
    # distinct sizes -> distinct BatchKeys -> both shards see traffic
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
    def test_each_shard_gets_its_own_recorder(self):
        ambient = FlightRecorder(capacity=512, shard="fleet")
        with use(recorder=ambient):
            with FleetService(_fleet_config()) as fleet:
                shards = fleet.shards()
                names = {s.name for s in shards}
                for shard in shards:
                    recorder = shard.service.recorder
                    assert recorder is not None
                    assert recorder is not ambient
                    assert recorder.shard == shard.name
                    assert recorder.capacity == 512
                    # the shard's private event log taps its own box
                    assert shard.service.events.recorder is recorder
                assert len(names) == len(shards)

    def test_scaled_up_shard_gets_a_sibling_recorder(self):
        """A shard started later, on another thread, still gets a sibling
        of the recorder installed when the fleet was built."""
        ambient = FlightRecorder(capacity=256, shard="fleet")
        with use(recorder=ambient):
            fleet = FleetService(_fleet_config(replicas=1))
        with fleet:
            added = []
            scaler = threading.Thread(target=lambda: added.extend(fleet.scale_up()))
            scaler.start()
            scaler.join(timeout=30.0)
            assert not scaler.is_alive()
            (name,) = added
            (shard,) = [s for s in fleet.shards() if s.name == name]
            recorder = shard.service.recorder
            assert recorder is not None and recorder is not ambient
            assert recorder.shard == name
            assert recorder.capacity == 256
            assert shard.service.events.recorder is recorder

    def test_no_ambient_recorder_means_none(self):
        with FleetService(_fleet_config()) as fleet:
            assert all(s.service.recorder is None for s in fleet.shards())

    def test_solves_and_events_land_in_the_owning_shard(self):
        ambient = FlightRecorder(shard="fleet")
        with use(recorder=ambient):
            with FleetService(_fleet_config()) as fleet:
                tickets = [fleet.submit(r) for r in _requests(8)]
                fleet.flush()
                for t in tickets:
                    assert t.result(timeout=30.0).converged
                busy = [
                    s for s in fleet.shards() if s.service.recorder.flushes_seen
                ]
                assert busy, "no shard recorded a flush"
                for shard in busy:
                    snapshot = shard.service.recorder.snapshot()
                    assert snapshot["flushes"]
                    assert snapshot["events"]
        # the fleet-wide ambient box never saw the per-shard flushes
        assert ambient.flushes_seen == 0

    def test_dump_recorders_feeds_cross_shard_postmortem(self, tmp_path):
        ambient = FlightRecorder(shard="fleet")
        with use(recorder=ambient):
            with FleetService(_fleet_config()) as fleet:
                tickets = [fleet.submit(r) for r in _requests(6)]
                fleet.flush()
                for t in tickets:
                    t.result(timeout=30.0)
                bundles = fleet.dump_recorders(tmp_path, reason="manual")
                assert len(bundles) == len(fleet.shards())
        analysis = analyze_bundles(load_bundles([tmp_path]))
        shard_names = {b["shard"] for b in analysis["bundles"]}
        assert len(shard_names) == len(bundles)
        assert analysis["attributed_fraction"] == 1.0  # nothing failed
