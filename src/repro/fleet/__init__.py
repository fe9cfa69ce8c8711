"""Layer 11: the sharded solver fleet.

:class:`FleetService` fronts N independent
:class:`~repro.serve.service.SolverService` replicas behind a
consistent-hash ring keyed on :class:`~repro.serve.request.BatchKey`
(:class:`HashRing`), with fleet-level admission control and graceful
shard drain. What it buys over one service is fault isolation between
batch keys: a key whose every request needs the direct-LU fallback
opens only its own shard's breaker and holds only its own shard's
workers, the way the paper's work-group per system confines a stalled
system to its own slice of the device.
"""

from repro.fleet.config import FleetConfig
from repro.fleet.ring import HashRing, key_position, ring_token
from repro.fleet.service import ACTIVE, DRAINING, STOPPED, FleetService, ShardReplica

__all__ = [
    "ACTIVE",
    "DRAINING",
    "STOPPED",
    "FleetConfig",
    "FleetService",
    "HashRing",
    "ShardReplica",
    "key_position",
    "ring_token",
]
