"""Policy knobs of the sharded solver fleet.

:class:`FleetConfig` is frozen, like :class:`~repro.serve.config.
ServeConfig`, so one object can be shared between the router and tests
without copying. The serve config embedded in it is the *template*
every shard replica is built from.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.serve.config import ServeConfig

#: How long a graceful drain waits for a departing shard's in-flight
#: requests before closing it anyway.
DRAIN_TIMEOUT_S = 30.0


@dataclass(frozen=True)
class FleetConfig:
    """Configuration of a :class:`~repro.fleet.service.FleetService`.

    Parameters
    ----------
    serve:
        The per-shard :class:`~repro.serve.config.ServeConfig` template.
        Every replica gets its own :class:`~repro.serve.service.
        SolverService` built from this config (own device queue, plan
        cache, micro-batcher, worker pool, circuit breaker).
    initial_replicas:
        Shards started when the fleet comes up.
    virtual_nodes:
        Virtual nodes per shard on the consistent-hash ring; more vnodes
        = smoother arcs (and marginally slower membership changes).
    max_pending:
        Fleet-level admission bound over the *sum* of per-shard pending
        requests. Past it, :meth:`~repro.fleet.service.FleetService.
        submit` rejects with :class:`~repro.exceptions.
        ServiceSaturatedError` before any shard sees the request —
        fleet backpressure fires first, shard-level saturation stays the
        per-shard hot-spot signal.
    """

    serve: ServeConfig = field(default_factory=ServeConfig)
    initial_replicas: int = 2
    virtual_nodes: int = 64
    max_pending: int = 4096

    def __post_init__(self) -> None:
        if self.initial_replicas <= 0:
            raise ValueError(
                f"initial_replicas must be positive, got {self.initial_replicas}"
            )
        if self.virtual_nodes <= 0:
            raise ValueError(f"virtual_nodes must be positive, got {self.virtual_nodes}")
        if self.max_pending <= 0:
            raise ValueError(f"max_pending must be positive, got {self.max_pending}")
