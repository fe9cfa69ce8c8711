"""Seeded fault plans for the chaos harness.

A :class:`FaultPlan` is a *pure function* from the flush sequence number
to the set of faults that fire on that flush. Probabilistic specs draw
from a keyed hash of ``(seed, spec index, flush index)`` — no shared RNG
stream, so the decision for flush 17 does not depend on which thread
asked about flush 16 first, and every firing can be re-derived from the
seed during incident review.

What the seed does not fix is which requests a faulted flush carries:
flush formation depends on thread timing, so two runs of one seeded
battery fault different requests and may inject a different number of
faults (one seed injected 22 to 31 over 20 quick runs of
``scripts/bench_chaos_slo.py``). ROADMAP item 11 keys faults to requests
so that the marked set replays exactly.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Iterable, Iterator

__all__ = [
    "WORKER_DIE",
    "POISON_BATCH",
    "SINGULAR_BATCH",
    "DEVICE_DELAY",
    "SANITIZER_TRIP_FAULT",
    "FAULT_KINDS",
    "FaultSpec",
    "FaultPlan",
]

#: The fault vocabulary (see docs/chaos.md).
WORKER_DIE = "worker_die"
POISON_BATCH = "poison_batch"
SINGULAR_BATCH = "singular_batch"
DEVICE_DELAY = "device_delay"
SANITIZER_TRIP_FAULT = "sanitizer_trip"

FAULT_KINDS = (
    WORKER_DIE,
    POISON_BATCH,
    SINGULAR_BATCH,
    DEVICE_DELAY,
    SANITIZER_TRIP_FAULT,
)


@dataclass(frozen=True)
class FaultSpec:
    """One fault kind plus its firing rule.

    Exactly one of the three triggers is consulted, in this order:
    explicit flush indices (``at``), a modular cadence (``every`` —
    fires on flush indices ``every-1, 2*every-1, ...``), or a keyed-hash
    ``probability`` draw. ``max_faults`` bounds the *total* number of
    firings of this spec within one injector run (the plan itself stays
    stateless; the injector enforces the budget).
    """

    kind: str
    at: tuple[int, ...] = ()
    every: int | None = None
    probability: float = 0.0
    delay_ms: float = 5.0
    max_faults: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; available: {list(FAULT_KINDS)}"
            )
        if self.every is not None and self.every <= 0:
            raise ValueError(f"every must be positive, got {self.every}")
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(f"probability must be in [0, 1], got {self.probability}")
        if self.delay_ms < 0:
            raise ValueError(f"delay_ms must be non-negative, got {self.delay_ms}")
        if self.max_faults is not None and self.max_faults <= 0:
            raise ValueError(f"max_faults must be positive, got {self.max_faults}")
        if not self.at and self.every is None and self.probability == 0.0:
            raise ValueError(
                f"FaultSpec({self.kind!r}) can never fire: set at=, every= or probability="
            )

    def fires_at(self, seed: int, spec_index: int, flush_index: int) -> bool:
        """Does this spec fire on ``flush_index``? Pure and deterministic."""
        if self.at:
            return flush_index in self.at
        if self.every is not None:
            return (flush_index + 1) % self.every == 0
        return _draw(seed, spec_index, flush_index) < self.probability

    def to_dict(self) -> dict:
        """JSON-ready form (inverse of :meth:`from_dict`)."""
        return {
            "kind": self.kind,
            "at": list(self.at),
            "every": self.every,
            "probability": self.probability,
            "delay_ms": self.delay_ms,
            "max_faults": self.max_faults,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FaultSpec":
        return cls(
            kind=data["kind"],
            at=tuple(int(i) for i in data.get("at", ())),
            every=data.get("every"),
            probability=float(data.get("probability", 0.0)),
            delay_ms=float(data.get("delay_ms", 5.0)),
            max_faults=data.get("max_faults"),
        )


def _draw(seed: int, spec_index: int, flush_index: int) -> float:
    """A uniform [0, 1) draw keyed on (seed, spec, flush) — no stream state."""
    digest = hashlib.sha256(f"{seed}:{spec_index}:{flush_index}".encode()).digest()
    return int.from_bytes(digest[:8], "big") / 2**64


class FaultPlan:
    """A seeded schedule of faults over the flush sequence."""

    def __init__(self, seed: int, specs: Iterable[FaultSpec]) -> None:
        self.seed = int(seed)
        self.specs = tuple(specs)
        if not self.specs:
            raise ValueError("a FaultPlan needs at least one FaultSpec")

    def decide(self, flush_index: int) -> list[FaultSpec]:
        """Every spec that fires on ``flush_index`` (deterministic)."""
        return [
            spec
            for j, spec in enumerate(self.specs)
            if spec.fires_at(self.seed, j, flush_index)
        ]

    def firings(self, num_flushes: int) -> Iterator[tuple[int, FaultSpec]]:
        """Enumerate (flush_index, spec) firings over the first N flushes.

        Ignores ``max_faults`` budgets — this is the *schedule*, the
        injector applies budgets at runtime.
        """
        for i in range(num_flushes):
            for spec in self.decide(i):
                yield i, spec

    def to_dict(self) -> dict:
        """JSON-ready form (inverse of :meth:`from_dict`)."""
        return {"seed": self.seed, "specs": [s.to_dict() for s in self.specs]}

    @classmethod
    def from_dict(cls, data: dict) -> "FaultPlan":
        return cls(
            seed=int(data["seed"]),
            specs=[FaultSpec.from_dict(s) for s in data["specs"]],
        )

    @classmethod
    def battery(cls, seed: int = 0) -> "FaultPlan":
        """The standard seeded fault battery CI and the bench gate run.

        Worker deaths and batch corruption on fixed cadences (so every
        run exercises every kind), a probabilistic device delay, and one
        early sanitizer trip.
        """
        return cls(
            seed,
            (
                FaultSpec(WORKER_DIE, every=7),
                FaultSpec(POISON_BATCH, every=5),
                FaultSpec(SINGULAR_BATCH, every=11),
                FaultSpec(DEVICE_DELAY, probability=0.2, delay_ms=2.0),
                FaultSpec(SANITIZER_TRIP_FAULT, at=(3,)),
            ),
        )

    def __repr__(self) -> str:
        kinds = ",".join(s.kind for s in self.specs)
        return f"FaultPlan(seed={self.seed}, specs=[{kinds}])"
