"""Policy knobs of the sharded solver fleet.

:class:`FleetConfig` is frozen, like :class:`~repro.serve.config.
ServeConfig`, so one object can be shared between the router, the
autoscaler and tests without copying. The serve config embedded in it is
the *template* every shard replica is built from.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.serve.config import ServeConfig

#: How long a graceful drain waits for a departing shard's in-flight
#: requests before closing it anyway.
DRAIN_TIMEOUT_S = 30.0

#: Autoscaler utilization thresholds (fleet pending / fleet capacity) for
#: scale-up pressure and scale-down relaxation.
HIGH_WATERMARK = 0.75
LOW_WATERMARK = 0.25


@dataclass(frozen=True)
class FleetConfig:
    """Configuration of a :class:`~repro.fleet.service.FleetService`.

    Parameters
    ----------
    serve:
        The per-shard :class:`~repro.serve.config.ServeConfig` template.
        Every replica gets its own :class:`~repro.serve.service.
        SolverService` built from this config (own device queue, plan
        cache, micro-batcher, worker pool).
    initial_replicas:
        Shards started when the fleet comes up.
    min_replicas / max_replicas:
        The autoscaler's (and manual scaling's) hard bounds.
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
    scale_up_patience / scale_down_patience:
        Consecutive pressured (resp. relaxed) evaluations required before
        acting — the hysteresis that stops one burst from thrashing the
        replica count.
    cooldown_evaluations:
        Evaluations ignored after any scaling action (the second half of
        the hysteresis: let the new replica set settle before judging it).
    """

    serve: ServeConfig = field(default_factory=ServeConfig)
    initial_replicas: int = 2
    min_replicas: int = 1
    max_replicas: int = 8
    virtual_nodes: int = 64
    max_pending: int = 4096
    scale_up_patience: int = 2
    scale_down_patience: int = 4
    cooldown_evaluations: int = 2

    def __post_init__(self) -> None:
        if self.initial_replicas <= 0:
            raise ValueError(
                f"initial_replicas must be positive, got {self.initial_replicas}"
            )
        if self.min_replicas <= 0:
            raise ValueError(f"min_replicas must be positive, got {self.min_replicas}")
        if not self.min_replicas <= self.max_replicas:
            raise ValueError(
                f"min_replicas ({self.min_replicas}) must not exceed "
                f"max_replicas ({self.max_replicas})"
            )
        if not self.min_replicas <= self.initial_replicas <= self.max_replicas:
            raise ValueError(
                f"initial_replicas ({self.initial_replicas}) must lie in "
                f"[{self.min_replicas}, {self.max_replicas}]"
            )
        if self.virtual_nodes <= 0:
            raise ValueError(f"virtual_nodes must be positive, got {self.virtual_nodes}")
        if self.max_pending <= 0:
            raise ValueError(f"max_pending must be positive, got {self.max_pending}")
        if self.scale_up_patience <= 0 or self.scale_down_patience <= 0:
            raise ValueError("scaling patience values must be positive")
        if self.cooldown_evaluations < 0:
            raise ValueError(
                f"cooldown_evaluations must be non-negative, "
                f"got {self.cooldown_evaluations}"
            )
