"""The autotuner: parameter space x search x evaluation x TuningDB.

:class:`Autotuner` is the one-call surface: given a platform and a
workload it checks the persistent :class:`~repro.tune.db.TuningDB`
first (same-key re-tunes are cache hits and run **no** measurements),
otherwise runs the configured search strategy and persists the winner.
Every tuning run emits a ``tune.search`` tracer span and counters on the
database's metrics registry, so a trace shows when serving-path latency
was spent re-tuning versus hitting the cache.

:func:`derive_threshold` turns a column of tuned records into the
paper's per-device small/large **sub-group threshold** ("needs to be
determined experimentally for each targeted device", Section 3.6): the
crossover row count where the tuned sub-group size switches from the
device's small width to its large one, ready to stamp into
``device.extra['sub_group_threshold_rows']``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hw.specs import GpuSpec
from repro.observability.tracer import current_tracer
from repro.tune.db import TuningDB, TuningKey, TuningRecord
from repro.tune.evaluate import CandidateEvaluator, TuneWorkload
from repro.tune.search import GRID, SearchResult, run_search
from repro.tune.space import space_signature


@dataclass
class TuneOutcome:
    """What one :meth:`Autotuner.tune` call produced."""

    record: TuningRecord
    from_cache: bool
    search: SearchResult | None = None

    @property
    def speedup(self) -> float:
        """Default-over-tuned modeled time of the stored record."""
        return self.record.speedup


class Autotuner:
    """Searches launch configurations and remembers the winners."""

    def __init__(
        self,
        spec: GpuSpec,
        db: TuningDB | None = None,
        strategy: str = GRID,
        budget: int = 16,
        patience: int = 8,
        seed: int = 0,
        prune_fraction: float = 1.0,
    ) -> None:
        self.spec = spec
        self.db = db if db is not None else TuningDB()
        self.strategy = strategy
        self.budget = budget
        self.patience = patience
        self.seed = seed
        self.prune_fraction = prune_fraction

    def key_for(self, workload: TuneWorkload) -> TuningKey:
        """The TuningDB key a workload tunes."""
        return TuningKey.for_problem(
            self.spec.device.name,
            workload.solver,
            workload.preconditioner,
            workload.num_rows,
            workload.precision,
        )

    def tune(self, workload: TuneWorkload, force: bool = False) -> TuneOutcome:
        """The tuned record for ``workload`` — cached, or freshly searched.

        ``force`` re-searches even on a database hit.
        """
        key = self.key_for(workload)
        signature = space_signature(self.spec.device)
        tracer = current_tracer()
        if not force:
            cached = self.db.lookup(key, signature=signature)
            if cached is not None:
                self.db.metrics.counter("tune.runs_cached").inc()
                return TuneOutcome(record=cached, from_cache=True)

        evaluator = CandidateEvaluator(
            self.spec, workload, metrics=self.db.metrics
        )
        with tracer.span(
            "tune.search",
            category="tune",
            platform=self.spec.key,
            workload=workload.name,
            solver=workload.solver,
            strategy=self.strategy,
            num_rows=workload.num_rows,
        ) as span:
            result = run_search(
                evaluator,
                strategy=self.strategy,
                budget=self.budget,
                patience=self.patience,
                seed=self.seed,
                prune_fraction=self.prune_fraction,
            )
            span.set_args(
                evaluations=result.evaluations,
                best_seconds=result.best_seconds,
                default_seconds=result.default_seconds,
                speedup=round(result.speedup, 4),
            )
        record = TuningRecord(
            key=key,
            candidate=result.best,
            modeled_seconds=result.best_seconds,
            default_seconds=result.default_seconds,
            strategy=result.strategy,
            evaluations=result.evaluations,
            seed=result.seed,
            space_signature=signature,
        )
        self.db.put(record)
        self.db.metrics.counter("tune.runs_searched").inc()
        if tracer.enabled:
            tracer.instant(
                "tune.record_stored",
                key=key.as_str(),
                speedup=round(record.speedup, 4),
            )
        return TuneOutcome(record=record, from_cache=False, search=result)


def derive_threshold(db: TuningDB, device_name: str) -> int | None:
    """The experimentally-determined sub-group threshold for a device.

    Scans the device's tuned records across row buckets and returns the
    largest bucket whose winning sub-group size is still the *small*
    width — i.e. the paper's crossover point, suitable for
    ``device.extra['sub_group_threshold_rows']``. ``None`` when the
    device has no records or never tuned to more than one width.
    """
    by_bucket: dict[int, int] = {}
    for record in db.records():
        if record.key.device != device_name:
            continue
        bucket = record.key.rows_bucket
        sg = record.candidate.sub_group_size
        # several records per bucket (different solvers): keep the widest
        by_bucket[bucket] = max(by_bucket.get(bucket, 0), sg)
    if len(by_bucket) < 2 or len(set(by_bucket.values())) < 2:
        return None
    widths = sorted(set(by_bucket.values()))
    small = widths[0]
    small_buckets = [b for b, sg in by_bucket.items() if sg == small]
    return max(small_buckets) if small_buckets else None
