"""Layer 11: the sharded, autoscaling solver fleet.

Scale *out* across device shards the way the paper scales *up* within
one GPU: :class:`FleetService` fronts N independent
:class:`~repro.serve.service.SolverService` replicas behind a
consistent-hash ring keyed on :class:`~repro.serve.request.BatchKey`
(:class:`HashRing`), with fleet-level admission control, graceful shard
drain, and an :class:`Autoscaler` driven by the fleet's admission
utilization.
"""

from repro.fleet.autoscaler import Autoscaler, FleetSignals
from repro.fleet.config import FleetConfig
from repro.fleet.ring import HashRing, key_position, ring_token
from repro.fleet.service import ACTIVE, DRAINING, STOPPED, FleetService, ShardReplica

__all__ = [
    "ACTIVE",
    "DRAINING",
    "STOPPED",
    "Autoscaler",
    "FleetConfig",
    "FleetService",
    "FleetSignals",
    "HashRing",
    "ShardReplica",
    "key_position",
    "ring_token",
]
