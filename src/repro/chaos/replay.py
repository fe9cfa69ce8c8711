"""Trace-replay load generation scored through the SLO monitor.

The chaos harness needs reproducible *traffic*, not just reproducible
faults: a seeded trace of per-tenant arrivals (diurnal or bursty, mixed
solver mechanisms, several batch keys) that can be replayed against a
:class:`~repro.serve.service.SolverService` or a
:class:`~repro.fleet.service.FleetService` — with or without a
:class:`~repro.chaos.injector.ChaosInjector` installed — and scored the
same way production is: through :func:`repro.telemetry.slo.default_slos`
evaluated over a :class:`~repro.telemetry.hub.TelemetryHub`.

Three layers:

* :func:`build_trace` — seed → ``list[ReplayItem]``. Arrival offsets come
  from :mod:`repro.workloads.arrivals` (``diurnal``/``bursty``/``poisson``
  /``uniform``); each item draws a tenant (weighted), inherits that
  tenant's priority, and picks a solver mechanism and batch key.
* :func:`save_trace` / :func:`load_trace` — the replay format: JSON
  Lines, one header object (``schema_version``, ``kind``, counts) then
  one object per item. Traces round-trip exactly, so a regression can be
  replayed from the artifact that caught it.
* :func:`run_replay` — paces the trace open-loop into a service built by
  the caller's factory *inside a hub scope*, waits out every ticket, and
  folds the results into a :class:`ReplayReport`: per-status-code and
  per-tenant outcome counts, client-observed latency percentiles, lost
  tickets (the invariant the chaos battery gates on: always zero), the
  injector's firing counts, and the SLO verdicts.

"Lost" is the one outcome that must never happen: a ticket neither
completed nor failed with a structured error within the wait budget.
Structured failures (429 quota, 503 breaker/worker-death, 422 singular)
are *accounted*, not lost — chaos turns crashes into status codes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable, Sequence

import numpy as np

from repro.exceptions import ReproError
from repro.serve.qos import DEFAULT_TENANT, PRIORITIES

__all__ = [
    "DEFAULT_TENANTS",
    "PATTERNS",
    "ReplayItem",
    "ReplayReport",
    "TenantSpec",
    "build_trace",
    "load_trace",
    "run_replay",
    "save_trace",
    "trace_requests",
]

#: Arrival processes a trace can be built from.
PATTERNS = ("uniform", "poisson", "bursty", "diurnal")

TRACE_KIND = "repro.chaos.trace"
TRACE_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class TenantSpec:
    """One tenant's share of the synthetic traffic mix."""

    name: str
    weight: float = 1.0
    priority: str = "normal"

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("tenant name must be non-empty")
        if self.weight <= 0:
            raise ValueError(f"tenant weight must be positive, got {self.weight}")
        if self.priority not in PRIORITIES:
            raise ValueError(
                f"priority must be one of {list(PRIORITIES)}, got {self.priority!r}"
            )


#: A three-class mix: a heavy low-priority free tier, a paid normal tier,
#: and a small latency-sensitive high-priority tier.
DEFAULT_TENANTS = (
    TenantSpec("free", weight=5.0, priority="low"),
    TenantSpec("pro", weight=3.0, priority="normal"),
    TenantSpec("enterprise", weight=2.0, priority="high"),
)


@dataclass(frozen=True)
class ReplayItem:
    """One arrival in a trace (what, when, and for whom)."""

    offset_s: float
    tenant: str
    priority: str
    solver: str
    key: int  # batch-key index (mapped to max_iterations at request build)

    def to_dict(self) -> dict:
        """One JSONL-ready record (inverse of :meth:`from_dict`)."""
        return {
            "offset_s": self.offset_s,
            "tenant": self.tenant,
            "priority": self.priority,
            "solver": self.solver,
            "key": self.key,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ReplayItem":
        return cls(
            offset_s=float(data["offset_s"]),
            tenant=str(data["tenant"]),
            priority=str(data["priority"]),
            solver=str(data["solver"]),
            key=int(data["key"]),
        )


def build_trace(
    seed: int,
    num_requests: int,
    rate_rps: float,
    pattern: str = "diurnal",
    tenants: Sequence[TenantSpec] = DEFAULT_TENANTS,
    num_keys: int = 4,
    solvers: Sequence[str] = ("cg", "bicgstab"),
    period_s: float = 4.0,
) -> list[ReplayItem]:
    """Deterministically synthesize a trace from a seed.

    ``period_s`` only applies to the diurnal pattern — the default 4 s
    compresses several day/night cycles into a short replay. Tenant draws
    are weight-proportional; solver and key draws are uniform, so a long
    enough trace exercises every mechanism x key bucket.
    """
    if pattern not in PATTERNS:
        raise ValueError(f"pattern must be one of {PATTERNS}, got {pattern!r}")
    if not tenants:
        raise ValueError("build_trace needs at least one tenant")
    if not solvers:
        raise ValueError("build_trace needs at least one solver mechanism")
    if num_keys <= 0:
        raise ValueError(f"num_keys must be positive, got {num_keys}")
    from repro.workloads import arrivals

    rng = np.random.default_rng(seed)
    if pattern == "uniform":
        offsets = arrivals.uniform_offsets(rate_rps, num_requests)
    elif pattern == "poisson":
        offsets = arrivals.poisson_offsets(rate_rps, num_requests, rng)
    elif pattern == "bursty":
        offsets = arrivals.bursty_offsets(rate_rps, num_requests, rng)
    else:
        offsets = arrivals.diurnal_offsets(
            rate_rps, num_requests, rng, period_s=period_s
        )
    weights = np.asarray([t.weight for t in tenants], dtype=np.float64)
    weights = weights / weights.sum()
    tenant_idx = rng.choice(len(tenants), size=num_requests, p=weights)
    solver_idx = rng.integers(len(solvers), size=num_requests)
    key_idx = rng.integers(num_keys, size=num_requests)
    return [
        ReplayItem(
            offset_s=float(offsets[i]),
            tenant=tenants[tenant_idx[i]].name,
            priority=tenants[tenant_idx[i]].priority,
            solver=str(solvers[solver_idx[i]]),
            key=int(key_idx[i]),
        )
        for i in range(num_requests)
    ]


# -- the replay format ---------------------------------------------------------


def save_trace(items: Iterable[ReplayItem], path: str | Path) -> Path:
    """Write a trace as JSON Lines: one header object, then one per item."""
    items = list(items)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as fh:
        fh.write(
            json.dumps(
                {
                    "schema_version": TRACE_SCHEMA_VERSION,
                    "kind": TRACE_KIND,
                    "num_items": len(items),
                }
            )
            + "\n"
        )
        for item in items:
            fh.write(json.dumps(item.to_dict()) + "\n")
    return path


def load_trace(path: str | Path) -> list[ReplayItem]:
    """Read a trace written by :func:`save_trace` (validates the header)."""
    lines = Path(path).read_text().splitlines()
    if not lines:
        raise ValueError(f"empty trace file: {path}")
    header = json.loads(lines[0])
    if header.get("kind") != TRACE_KIND:
        raise ValueError(
            f"not a replay trace (kind={header.get('kind')!r}): {path}"
        )
    if header.get("schema_version") != TRACE_SCHEMA_VERSION:
        raise ValueError(
            f"unsupported trace schema_version {header.get('schema_version')!r}"
        )
    items = [ReplayItem.from_dict(json.loads(line)) for line in lines[1:] if line]
    declared = header.get("num_items")
    if declared is not None and declared != len(items):
        raise ValueError(
            f"trace header declares {declared} items but file holds {len(items)}"
        )
    return items


# -- request synthesis ---------------------------------------------------------


def trace_requests(
    items: Sequence[ReplayItem],
    seed: int,
    size: int = 24,
    base_max_iterations: int = 500,
) -> list:
    """Materialize one :class:`SolveRequest` per trace item.

    All requests share the 3-point-stencil sparsity pattern; values are
    perturbed per request by a symmetric congruence ``D A D`` (``D`` a
    random positive diagonal), which preserves SPD so the trace's ``cg``
    share converges like its ``bicgstab`` share. An item's ``key`` maps
    to ``base_max_iterations + key`` so distinct keys hash to distinct
    :class:`~repro.serve.request.BatchKey`\\ s — and, behind a fleet, to
    distinct shards — without changing solve behaviour.
    """
    from repro.serve import SolveRequest
    from repro.workloads.arrivals import stencil_pattern

    pattern = stencil_pattern(size)
    entry_rows = np.repeat(np.arange(size), np.diff(pattern.indptr))
    entry_cols = pattern.indices
    rng = np.random.default_rng(seed ^ 0x5EED)
    requests = []
    for item in items:
        scale = rng.uniform(0.95, 1.05, size=size)
        matrix = pattern.copy()
        matrix.data = pattern.data * scale[entry_rows] * scale[entry_cols]
        requests.append(
            SolveRequest(
                matrix,
                rng.standard_normal(size),
                solver=item.solver,
                preconditioner="jacobi",
                max_iterations=base_max_iterations + item.key,
                tenant=item.tenant,
                priority=item.priority,
            )
        )
    return requests


# -- the report ----------------------------------------------------------------


@dataclass
class ReplayReport:
    """What one replay run observed, client-side and telemetry-side."""

    total: int = 0
    completed: int = 0
    failed: int = 0
    rejected: int = 0  # refused at submit() (quota / saturation / breaker)
    lost: int = 0  # neither completed nor structurally failed — must be 0
    fallbacks: int = 0
    statuses: dict[int, int] = field(default_factory=dict)
    error_codes: dict[str, int] = field(default_factory=dict)
    per_tenant: dict[str, dict[str, int]] = field(default_factory=dict)
    latency_p50_ms: float = 0.0
    latency_p99_ms: float = 0.0
    duration_s: float = 0.0
    slo_rows: list[dict] = field(default_factory=list)
    injected: dict[str, int] = field(default_factory=dict)

    @property
    def slo_compliant(self) -> bool:
        """Every objective met over the whole run (vacuously true when idle)."""
        return all(row["compliant"] for row in self.slo_rows)

    @property
    def injected_total(self) -> int:
        return sum(self.injected.values())

    def to_metrics(self) -> dict:
        """Flat scalars for the bench schema / regression manifest."""
        metrics = {
            "total_requests": self.total,
            "completed": self.completed,
            "failed": self.failed,
            "rejected": self.rejected,
            "lost_requests": self.lost,
            "fallbacks": self.fallbacks,
            "latency_p50_ms": round(self.latency_p50_ms, 3),
            "latency_p99_ms": round(self.latency_p99_ms, 3),
            "duration_s": round(self.duration_s, 3),
            "slo_compliant": self.slo_compliant,
            "injected_total": self.injected_total,
        }
        for code, count in sorted(self.statuses.items()):
            metrics[f"status_{code}"] = count
        for row in self.slo_rows:
            metrics[f"slo_{row['name']}_good_fraction"] = round(
                row["good_fraction"], 6
            )
        return metrics

    def tenant_rows(self) -> list[dict]:
        """Table rows: one per tenant, for CLI reporting."""
        rows = []
        for tenant in sorted(self.per_tenant):
            counts = self.per_tenant[tenant]
            rows.append({"tenant": tenant, **counts})
        return rows


def _classify(report: ReplayReport, tenant: str, error: Exception | None) -> None:
    bucket = report.per_tenant.setdefault(
        tenant, {"completed": 0, "failed": 0, "rejected": 0, "lost": 0}
    )
    if error is None:
        report.completed += 1
        bucket["completed"] += 1
        return
    status = getattr(error, "status_code", 500)
    code = getattr(error, "error_code", "internal")
    report.statuses[status] = report.statuses.get(status, 0) + 1
    report.error_codes[code] = report.error_codes.get(code, 0) + 1
    report.failed += 1
    bucket["failed"] += 1


def run_replay(
    items: Sequence[ReplayItem],
    make_service: Callable[[], Any],
    *,
    seed: int = 0,
    size: int = 24,
    base_max_iterations: int = 500,
    latency_threshold_ms: float = 500.0,
    result_timeout_s: float = 30.0,
    hub: Any | None = None,
) -> ReplayReport:
    """Replay ``items`` against a freshly built service and score the run.

    ``make_service`` is called with a fresh hub (and its event log)
    installed (:func:`repro.instruments.use`), so every service it
    constructs (a single :class:`SolverService` or a whole fleet of
    shards) registers with one hub; the report's SLO rows are
    :func:`default_slos` evaluated across all of them. Install chaos by
    calling this inside ``use(chaos=...)`` or by passing ``chaos=`` to the
    factory's service — the report picks up firing counts from whatever
    injector the service carries.
    """
    import time

    from repro.instruments import use
    from repro.telemetry.hub import TelemetryHub
    from repro.telemetry.slo import default_slos

    report = ReplayReport(total=len(items))
    hub = TelemetryHub() if hub is None else hub
    with use(hub=hub, events=hub.event_log):
        service = make_service()
    requests = trace_requests(
        items, seed, size=size, base_max_iterations=base_max_iterations
    )
    offsets = [item.offset_s for item in items]
    start = time.perf_counter()
    try:
        from repro.workloads.arrivals import pace

        def submit(i: int):
            try:
                return service.submit(requests[i])
            except ReproError as error:
                return error

        results = pace(offsets, submit)
        service.flush()
        for item, result in zip(items, results):
            if isinstance(result, ReproError):
                # refused at the front door: accounted, never waited on
                report.rejected += 1
                bucket = report.per_tenant.setdefault(
                    item.tenant,
                    {"completed": 0, "failed": 0, "rejected": 0, "lost": 0},
                )
                bucket["rejected"] += 1
                status = result.status_code
                report.statuses[status] = report.statuses.get(status, 0) + 1
                report.error_codes[result.error_code] = (
                    report.error_codes.get(result.error_code, 0) + 1
                )
                continue
            ticket = result
            try:
                error = ticket.exception(timeout=result_timeout_s)
            except TimeoutError:
                report.lost += 1
                bucket = report.per_tenant.setdefault(
                    item.tenant,
                    {"completed": 0, "failed": 0, "rejected": 0, "lost": 0},
                )
                bucket["lost"] += 1
                continue
            _classify(report, item.tenant, error)
            if error is None and ticket._outcome is not None:
                if ticket._outcome.used_fallback:
                    report.fallbacks += 1
    finally:
        report.duration_s = time.perf_counter() - start
        try:
            service.close(drain=True)
        except Exception:
            pass

    # client-observed end-to-end latency from ticket timing stamps is
    # service-side; score the telemetry instead (the SLO's source of truth)
    latencies = _latency_percentiles(hub)
    report.latency_p50_ms, report.latency_p99_ms = latencies
    for status in hub.slo_statuses(default_slos(latency_threshold_ms)):
        report.slo_rows.append(
            {
                "name": status.spec.name,
                "objective": status.spec.objective,
                "good_fraction": status.good_fraction,
                "compliant": status.compliant,
                "budget_consumed": status.budget_consumed,
            }
        )
    chaos = getattr(service, "chaos", None)
    if chaos is not None:
        report.injected = chaos.injected_by_kind()
    return report


def _latency_percentiles(hub: Any) -> tuple[float, float]:
    """(p50, p99) over every registry's ``serve.latency_hdr_ms`` histogram."""
    p50s: list[float] = []
    p99s: list[float] = []
    counts: list[float] = []
    for registry in hub.registries:
        hist = registry.log_histogram("serve.latency_hdr_ms")
        if hist.count == 0:
            continue
        counts.append(float(hist.count))
        p50s.append(float(hist.percentile(50.0)))
        p99s.append(float(hist.percentile(99.0)))
    if not counts:
        return 0.0, 0.0
    total = sum(counts)
    # count-weighted p50; conservative max for p99 (a fleet's tail is
    # its worst shard's tail)
    p50 = sum(p * c for p, c in zip(p50s, counts)) / total
    return p50, max(p99s)
