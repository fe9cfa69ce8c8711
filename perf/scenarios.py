"""The four benchmark workloads, driven through public calls only.

Each workload has a set-up step that ends at *ready* (program objects
built, first flush per key and first kernel lowering paid) and a timed
step that runs for a given number of seconds and returns samples. Inputs
are the benchmark's own (``workloads.py``) and every answer is checked
against the benchmark's copy of ``(A, b)``. Between units of work the
timed step samples the speed gauge (``gauge.py``), and the busy part of
every timing is scaled by the samples around it; ``batch_pele`` scales
each solve by the time of its own answer check instead.

    serve_keys_open    open loop: Poisson at 50 rps over four batch keys
    serve_newton_warm  closed loop: 512-cell warm-started Newton rounds
    serve_kernel_wide  closed loop: 16-system fused-kernel rounds
    batch_pele         closed loop: library batch solves, no serving layer

The path matrix at the end is not a workload: a traced run of all
workloads solves it once. ``perf/README.md`` says why each exists.
"""

from __future__ import annotations

import resource
import time
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

import loadgen
import workloads as wl
from gauge import CheckGauge, Gauge, at_nominal, cpu_ns
from repro.core.dispatch import BatchSolverFactory
from repro.core.matrix import BatchCsr
from repro.core.preconditioner.jacobi import BatchJacobi
from repro.kernels import bicgstab_kernel
from repro.serve import ServeConfig, SolveRequest, SolverService
from repro.sycl.device import pvc_stack_device
from repro.wide import WideQueue

TOLERANCE = 1e-8
#: An answer is wrong when its true relative residual exceeds this many tolerances.
RESIDUAL_SLACK = 10.0


@dataclass
class Tally:
    """Attempted and failed work; failed counts errors, refusals and wrong answers."""

    attempted: int = 0
    failed: int = 0
    worst_residual: float = 0.0
    reasons: dict = field(default_factory=dict)

    def fail(self, reason: str, count: int = 1) -> None:
        self.failed += count
        self.reasons[reason] = self.reasons.get(reason, 0) + count

    def check(self, residuals) -> np.ndarray:
        """Count ``residuals`` as attempted, the wrong ones as failed; returns the ok mask."""
        residuals = np.atleast_1d(np.asarray(residuals, dtype=np.float64))
        ok = np.isfinite(residuals) & (residuals <= RESIDUAL_SLACK * TOLERANCE)
        self.attempted += residuals.size
        if residuals.size:
            self.worst_residual = max(self.worst_residual, float(np.nanmax(residuals)))
        if (~ok).any():
            self.fail("wrong_answer", int((~ok).sum()))
        return ok

    def check_records(self, records, residuals_of) -> None:
        """Check every record: no outcome counts as failed, else its residual decides."""
        for rec in records:
            if rec.outcome is None:
                self.attempted += 1
                self.fail(rec.error or "failed")
            else:
                self.check(residuals_of(rec))


@dataclass
class Samples:
    """What one timed step measured, in wall time, with when it was measured.

    Latency percentiles are taken over every sample of the step at once.
    Throughput is the median over blocks (a round, a cycle of rounds or
    shapes, a stretch of an open loop), so a slow spell moves only the
    blocks it overlaps. Each timing's busy part is divided by the gauge's
    factor at its time (:func:`gauge.at_nominal`), and timings the host
    disturbed are left out (:meth:`Gauge.calm_at`); ``raw=True`` takes
    every timing as measured.
    """

    gauge: Gauge
    # Latencies and iteration counts are kept as one array per round or call,
    # so the benchmark's own memory hardly grows with the number of rounds.
    latency_ns: list = field(default_factory=list)  # perf_counter_ns each latency refers to
    latency_ms: list = field(default_factory=list)
    busy_ms: list = field(default_factory=list)  # process CPU time within each latency
    # (systems solved, [(perf_counter_ns at its middle, seconds, busy seconds), ...])
    # per block
    blocks: list = field(default_factory=list)
    records: list = field(default_factory=list)  # loadgen.Record, when kept
    iterations: list = field(default_factory=list)  # per system, in send order
    extra: dict = field(default_factory=dict)
    peak_rss_mb: float | None = None  # when read before the step ended

    def add_latencies(self, times_ns, ms, busy_ms) -> None:
        self.latency_ns.append(np.asarray(times_ns, dtype=np.int64))
        self.latency_ms.append(np.asarray(ms, dtype=np.float64))
        self.busy_ms.append(np.asarray(busy_ms, dtype=np.float64))

    def add_records(self, records: list) -> int:
        """Latencies and iteration counts of one round; returns how many completed."""
        done = [r for r in records if r.outcome is not None]
        self.add_latencies([r.due_ns for r in done], [r.latency_ms for r in done],
                           [r.busy_ms for r in done])
        self.iterations.append(
            np.array([r.outcome.iterations if r.outcome else -1 for r in records])
        )
        return len(done)

    def end_to_end(self, raw: bool = False) -> dict:
        factor = (lambda _t: 1.0) if raw else self.gauge.factor_at
        times, latencies, busy = self._latencies()
        latencies = at_nominal(latencies, busy, factor(times))[self._kept_latencies(raw)]
        rates = [solved / sum(at_nominal(s, b, factor(t)) for t, s, b in parts)
                 for (solved, parts), kept in zip(self.blocks, self._kept_blocks(raw)) if kept]
        return {
            "latency_p50_ms": (loadgen.percentile(latencies, 50), "ms"),
            "latency_p90_ms": (loadgen.percentile(latencies, 90), "ms"),
            "solves_per_s": (float(np.median(rates)), "systems/s"),
        }

    def _latencies(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return (np.concatenate(self.latency_ns or [np.empty(0, np.int64)]),
                np.concatenate(self.latency_ms or [np.empty(0)]),
                np.concatenate(self.busy_ms or [np.empty(0)]))

    def _kept_latencies(self, raw: bool = False) -> np.ndarray:
        return _kept(self.gauge.calm_at(self._latencies()[0]), raw)

    def _kept_blocks(self, raw: bool = False) -> np.ndarray:
        """A block counts when the host left every part of it alone."""
        return _kept(np.array(
            [self.gauge.calm_at([p[0] for p in parts]).all() for _n, parts in self.blocks],
            dtype=bool,
        ), raw)

    def diagnostics(self) -> dict:
        """Raw metrics, the gauge and the sample counts, printed beside the metrics."""
        out = {f"{name}.raw": value for name, value in self.end_to_end(raw=True).items()}
        latencies, blocks = self._kept_latencies(), self._kept_blocks()
        out.update({
            "gauge.factor_median": (self.gauge.median(), "ratio"),
            "gauge.samples": (len(self.gauge.factors), "count"),
            "latency_samples": (int(latencies.sum()), "count"),
            "latency_samples_left_out": (int((~latencies).sum()), "count"),
            "blocks": (int(blocks.sum()), "count"),
            "blocks_left_out": (int((~blocks).sum()), "count"),
        })
        return out

    def iterations_head(self, count: int = 128) -> list:
        """The first ``count`` iteration counts, in send order."""
        return np.concatenate(self.iterations or [np.empty(0, int)])[:count].tolist()


def _kept(calm: np.ndarray, raw: bool) -> np.ndarray:
    """The calm entries, or all of them: as measured, or when under half are calm.

    A run the host disturbed throughout keeps every timing rather than
    resting on a few.
    """
    if raw or calm.sum() < 0.5 * calm.size:
        return np.ones(calm.shape, dtype=bool)
    return calm


def peak_rss_mb() -> float:
    """Peak resident memory of this process so far, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _clocks() -> tuple[int, int]:
    """Wall and process CPU clocks now, both in nanoseconds."""
    return loadgen.now_ns(), cpu_ns()


def _part(start: tuple[int, int], end: tuple[int, int]) -> tuple[int, float, float]:
    """One timed part of a block, from two :func:`_clocks` readings.

    Returns its middle, its length in seconds and the CPU seconds in it.
    """
    return (start[0] + end[0]) // 2, (end[0] - start[0]) / 1e9, (end[1] - start[1]) / 1e9


class Workload:
    """Shared shape of the four workloads."""

    name = ""
    #: End-to-end metric a traced run compares against an untraced one.
    primary = "solves_per_s"
    config = ServeConfig()

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.fingerprint = wl.Fingerprint()
        self.gauge = Gauge()
        self.service = None
        self.collector = None
        #: Keep every request record (traced runs); closed loops drop them
        #: otherwise, so the benchmark's own memory does not grow with the run.
        self.keep_records = False

    def open_service(self, tracer=None) -> None:
        """Build the service and pay its first flush per key."""
        self.close()
        self.service = SolverService(self.config, tracer=tracer)
        self.collector = loadgen.Collector()
        self.warm_up()

    def warm_up(self) -> None:
        raise NotImplementedError

    def close(self) -> None:
        if self.service is not None:
            self.service.close()
            self.collector.close()
            self.service = self.collector = None

    def run(self, seconds: float, tally: Tally) -> Samples:
        raise NotImplementedError

    def traced_segment(self, seconds: float, tally: Tally) -> Samples:
        """The part of :meth:`run` a traced run repeats with and without probes."""
        return self.run(seconds, tally)

    def _solve(self, request: SolveRequest) -> None:
        """Warm-up solve; set-up fails loudly if it does not converge."""
        out = self.service.solve(request, timeout=120)
        if not out.converged:
            raise RuntimeError(f"{self.name}: warm-up request did not converge")


def _request(a, b, solver: str, x0=None) -> SolveRequest:
    return SolveRequest(a, b, x0=x0, solver=solver, preconditioner="jacobi", tolerance=TOLERANCE)


# -- W1 --------------------------------------------------------------------------------


class ServeKeysOpen(Workload):
    """Open-loop Poisson traffic over four batch keys that rarely co-batch.

    A run offers :data:`RATE_RPS` throughout. Its ``solves_per_s`` is the
    rate the service's CPU could sustain: requests completed per second
    the process was busy (:meth:`cpu_blocks`). Completions per second of
    wall time would only repeat the offered rate.
    """

    name = "serve_keys_open"
    primary = "latency_p50_ms"
    #: (solver, rows, spd) of the four keys.
    KEYS = (("cg", 24, True), ("bicgstab", 24, False), ("cg", 40, True), ("bicgstab", 40, False))
    RATE_RPS = 50.0
    #: Intervals between gauge samples per ``solves_per_s`` block (about 1 s).
    BLOCK_INTERVALS = 10

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.patterns = {n: wl.stencil_pattern(n) for _s, n, _spd in self.KEYS}

    def warm_up(self) -> None:
        rng = wl.rng_for(self.seed, wl.STREAM_SYSTEMS, 0)
        for solver, n, spd in self.KEYS:
            a = self.patterns[n].scipy(wl.stencil_values(n, 1, spd, rng)[0])
            self._solve(_request(a, rng.standard_normal(n), solver))

    def requests(self, phase: int, count: int, record: bool = True):
        """Request makers and check data of ``count`` requests of one phase.

        Phase ``phase`` draws from its own generators. Each key gets an
        equal share of the requests (to within one), in a seeded order, so
        the mix of cheap and costly keys does not move with the seed.
        ``record`` adds the inputs to the fingerprint.
        """
        order = wl.rng_for(self.seed, wl.STREAM_KEYS, phase)
        keys = order.permutation(np.arange(count) % len(self.KEYS))
        rng = wl.rng_for(self.seed, wl.STREAM_SYSTEMS, phase)
        cases, makers = [], []
        for k in keys:
            solver, n, spd = self.KEYS[k]
            values = wl.stencil_values(n, 1, spd, rng)[0]
            b = rng.standard_normal(n)
            a = self.patterns[n].scipy(values)
            if record:
                self.fingerprint.add(values, b)
            cases.append((self.patterns[n], values, b))
            makers.append(lambda a=a, b=b, s=solver: _request(a, b, s))
        if record:
            self.fingerprint.add(keys)
        return makers, cases

    def _check(self, records, cases, tally: Tally) -> None:
        tally.check_records(
            records, lambda rec: wl.rel_residuals(*cases[rec.key], rec.outcome.x)
        )

    def run(self, seconds: float, tally: Tally) -> Samples:
        """Poisson arrivals at :data:`RATE_RPS` for ``seconds``; every request counts."""
        offsets = wl.poisson_offsets(
            self.RATE_RPS, seconds, wl.rng_for(self.seed, wl.STREAM_ARRIVALS, 1)
        )
        self.fingerprint.add(offsets)
        makers, cases = self.requests(1, len(offsets))
        records = loadgen.open_loop(self.service, offsets, makers, self.collector, self.gauge)
        self._check(records, cases, tally)
        samples = Samples(self.gauge, records=records, extra={
            "loadgen.lag_p99_ms": (loadgen.percentile([r.lag_ms for r in records], 99), "ms"),
        })
        samples.add_records(records)
        samples.blocks = self.cpu_blocks(records)
        return samples

    def cpu_blocks(self, records) -> list:
        """``solves_per_s`` blocks: completions over the process's CPU time.

        The sender samples the gauge only while no request is open, so
        every request runs inside one interval between two samples. An
        interval's time is the CPU time the process spent in it, the
        samples' own left out; :data:`BLOCK_INTERVALS` intervals make a
        block.
        """
        done = np.sort([r.done_ns for r in records if r.outcome is not None])
        intervals = self.gauge.busy_between()
        blocks = []
        for k in range(0, len(intervals) - self.BLOCK_INTERVALS + 1, self.BLOCK_INTERVALS):
            group = intervals[k:k + self.BLOCK_INTERVALS]
            solved = np.searchsorted(done, group[-1][1]) - np.searchsorted(done, group[0][0])
            blocks.append((int(solved), [((a + b) // 2, busy, busy) for a, b, busy in group]))
        return blocks


# -- W2 --------------------------------------------------------------------------------


class ServeNewtonWarm(Workload):
    """Closed-loop Newton rounds of drm19-shaped cells, warm-started from the last answer."""

    name = "serve_newton_warm"
    CELLS = 512
    SHAPE = "drm19"
    PERTURB = 0.01
    #: Peak memory is read after this many rounds, not when the step ends.
    #: The service's memory grew by about 60 KB a round, so a peak read at
    #: the end followed how many rounds the machine's speed allowed (176 to
    #: 236 in 25 s, 89 to 96 MB); 100 rounds take 10 to 14 s.
    RSS_ROUNDS = 100

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        rng = wl.rng_for(self.seed, wl.STREAM_SYSTEMS)
        self.pattern = wl.chemistry_pattern(self.SHAPE, rng)
        self.base_values = wl.chemistry_values(self.pattern, self.CELLS, rng)
        self.base_b = wl.chemistry_rhs(self.CELLS, self.pattern.num_rows, rng)
        self.fingerprint.add(
            self.pattern.row_ptrs, self.pattern.col_idxs, self.base_values, self.base_b
        )
        self._round = 0

    def warm_up(self) -> None:
        a = self.pattern.scipy(self.base_values[0])
        for x0 in (None, np.zeros(self.pattern.num_rows)):
            self._solve(_request(a, self.base_b[0], "bicgstab", x0))

    def round_inputs(self, r: int):
        """Round ``r``: every cell's values and right-hand side moved by up to ±1%."""
        rng = wl.rng_for(self.seed, wl.STREAM_ROUNDS, r)
        shake = 1.0 + self.PERTURB * rng.uniform(-1, 1, self.base_values.shape)
        values = self.base_values * shake
        b = self.base_b * (1.0 + self.PERTURB * rng.uniform(-1, 1, self.base_b.shape))
        return values, b

    def run(self, seconds: float, tally: Tally) -> Samples:
        samples = Samples(self.gauge)
        x = [None] * self.CELLS
        self.gauge.probe()
        start = time.perf_counter()
        while time.perf_counter() - start < seconds:
            values, b = self.round_inputs(self._round)
            self._round += 1
            mats = [self.pattern.scipy(v) for v in values]
            makers = [
                (lambda i=i: _request(mats[i], b[i], "bicgstab", x[i])) for i in range(self.CELLS)
            ]
            begin = _clocks()
            records = loadgen.closed_round(self.service, makers, self.collector)
            end = _clocks()
            self.gauge.probe()
            tally.check_records(
                records,
                lambda rec: wl.rel_residuals(self.pattern, values[rec.key], b[rec.key],
                                             rec.outcome.x),
            )
            for rec in records:
                if rec.outcome is not None:
                    x[rec.key] = rec.outcome.x
            samples.blocks.append((samples.add_records(records), [_part(begin, end)]))
            if len(samples.blocks) == self.RSS_ROUNDS:
                samples.peak_rss_mb = peak_rss_mb()
            if self.keep_records:
                samples.records.extend(records)
        return samples


# -- W3 --------------------------------------------------------------------------------


class ServeKernelWide(Workload):
    """Closed-loop rounds through the fused lockstep kernels of the wide backend."""

    name = "serve_kernel_wide"
    config = ServeConfig(backend="wide", execution="kernel")
    SYSTEMS = 16
    ROWS = 128
    # Every 3rd round is warm-started and takes the vectorized fallback, so
    # cold CG, cold BiCGSTAB and warm rounds each hold a third of the
    # requests and the median lands inside one of them, not between two.
    WARM_EVERY = 3
    CYCLE = 6  # rounds until solver and warm start repeat together
    PERTURB = 0.01
    GAP_ROUNDS = 2  # cold rounds re-solved on the core to compare iteration counts

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        rng = wl.rng_for(self.seed, wl.STREAM_SYSTEMS)
        self.pattern = wl.stencil_pattern(self.ROWS)
        self.base = {}
        for solver, spd in (("cg", True), ("bicgstab", False)):
            self.base[solver] = (
                wl.stencil_values(self.ROWS, self.SYSTEMS, spd, rng),
                rng.standard_normal((self.SYSTEMS, self.ROWS)),
            )
            self.fingerprint.add(*self.base[solver])
        self._round = 0
        self.first_call_ms = 0.0
        self.cold_rounds: list = []  # (solver, values, b, kernel iterations) of the last run

    def warm_up(self) -> None:
        # the first fused launch per solver lowers its kernel; the warm
        # request takes the vectorized fallback and caches that plan too
        for solver, (values, b) in self.base.items():
            a = self.pattern.scipy(values[0])
            t0 = time.perf_counter()
            self._solve(_request(a, b[0], solver))
            if not self.first_call_ms:
                self.first_call_ms = (time.perf_counter() - t0) * 1e3
            self._solve(_request(a, b[0], solver, np.zeros(self.ROWS)))

    def run(self, seconds: float, tally: Tally) -> Samples:
        samples = Samples(self.gauge)
        last_x: dict = {}
        self.cold_rounds = []
        self.gauge.probe()
        start = time.perf_counter()
        while time.perf_counter() - start < seconds:
            solved, parts = 0, []
            for _ in range(self.CYCLE):
                records, part = self._round_trip(last_x, tally)
                solved += samples.add_records(records)
                parts.append(part)
                if self.keep_records:
                    samples.records.extend(records)
            samples.blocks.append((solved, parts))
        return samples

    def _round_trip(self, last_x: dict, tally: Tally) -> tuple[list, tuple]:
        """One round of :data:`SYSTEMS` requests, then a gauge sample.

        Returns the round's records and its timed part.
        """
        r = self._round
        self._round += 1
        solver = "cg" if r % 2 == 0 else "bicgstab"
        warm = r % self.WARM_EVERY == self.WARM_EVERY - 1 and solver in last_x
        base_values, b = self.base[solver]
        rng = wl.rng_for(self.seed, wl.STREAM_ROUNDS, r)
        values = base_values * (1.0 + self.PERTURB * rng.uniform(-1, 1, base_values.shape))
        x0 = last_x[solver] if warm else [None] * self.SYSTEMS
        mats = [self.pattern.scipy(v) for v in values]
        makers = [
            (lambda i=i: _request(mats[i], b[i], solver, x0[i])) for i in range(self.SYSTEMS)
        ]
        start = _clocks()
        records = loadgen.closed_round(self.service, makers, self.collector)
        end = _clocks()
        self.gauge.probe()
        tally.check_records(
            records,
            lambda rec: wl.rel_residuals(self.pattern, values[rec.key], b[rec.key], rec.outcome.x),
        )
        if all(rec.outcome is not None for rec in records):
            last_x[solver] = [rec.outcome.x for rec in records]
            if not warm and len(self.cold_rounds) < self.GAP_ROUNDS:
                iters = [rec.outcome.iterations for rec in records]
                self.cold_rounds.append((solver, values, b, iters))
        return records, _part(start, end)

    def kernel_core_gap(self) -> int:
        """Largest per-system iteration gap between the fused kernel and the core solver."""
        gap = 0
        for solver, values, b, iters in self.cold_rounds:
            matrix = BatchCsr(self.pattern.row_ptrs, self.pattern.col_idxs, values)
            core = BatchSolverFactory(
                solver=solver, preconditioner="jacobi", tolerance=TOLERANCE
            ).solve(matrix, b).iterations
            gap = max(gap, int(np.max(np.abs(np.asarray(iters) - core))))
        return gap


# -- W4 --------------------------------------------------------------------------------


class BatchPele(Workload):
    """Library-only batch solves over the five Table-4 shapes, round-robin."""

    name = "batch_pele"
    REPLICATION = 8
    #: CPU seconds of the residual check of one shape's batch (the gauge's
    #: reference work here), median over a minute on the machine
    #: ``results/README.md`` names.
    CHECK_NOMINAL_S = {
        "drm19": 0.0016, "gri12": 0.0035, "gri30": 0.0127, "dodecane_lu": 0.0088,
        "isooctane": 0.034,
    }

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.gauge = CheckGauge()
        self.inputs = {}
        for i, shape in enumerate(wl.TABLE4):
            rng = wl.rng_for(self.seed, wl.STREAM_SYSTEMS, i)
            pattern = wl.chemistry_pattern(shape, rng)
            unique = wl.TABLE4[shape][0]
            values = np.tile(wl.chemistry_values(pattern, unique, rng), (self.REPLICATION, 1))
            b = np.tile(wl.chemistry_rhs(unique, pattern.num_rows, rng), (self.REPLICATION, 1))
            self.fingerprint.add(pattern.row_ptrs, pattern.col_idxs, values, b)
            self.inputs[shape] = (pattern, values, b)
        self.matrices: dict = {}
        self.factory = None

    def open_service(self, tracer=None) -> None:
        """No service: build the batched matrices and the factory, solve a slice of each."""
        self.factory = BatchSolverFactory(
            solver="bicgstab", preconditioner="jacobi", tolerance=TOLERANCE
        )
        for shape, (pattern, values, b) in self.inputs.items():
            self.matrices[shape] = BatchCsr(pattern.row_ptrs, pattern.col_idxs, values)
            self.factory.solve(self.matrices[shape].take_batch(slice(0, 4)), b[:4])

    def close(self) -> None:
        self.matrices.clear()

    def run(self, seconds: float, tally: Tally) -> Samples:
        samples = Samples(self.gauge)
        start = time.perf_counter()
        while time.perf_counter() - start < seconds:
            solved, parts = 0, []
            for shape, (pattern, values, b) in self.inputs.items():  # one cycle
                begin = _clocks()
                result = self.factory.solve(self.matrices[shape], b)
                end = _clocks()
                cpu = time.thread_time()
                residuals = wl.rel_residuals(pattern, values, b, result.x)
                self.gauge.record(time.thread_time() - cpu, self.CHECK_NOMINAL_S[shape], end[0])
                solved += int(tally.check(residuals).sum())
                parts.append(_part(begin, end))
                mid, wall_s, busy_s = parts[-1]
                samples.add_latencies([mid], [wall_s * 1e3], [busy_s * 1e3])
                samples.iterations.append(result.iterations)
            samples.blocks.append((solved, parts))
        return samples


WORKLOADS = {
    cls.name: cls for cls in (ServeKeysOpen, ServeNewtonWarm, ServeKernelWide, BatchPele)
}


# -- the execution-path matrix ------------------------------------------------------------

#: (rows, batch) cells of the path matrix.
PATH_CELLS = ((32, 4), (32, 64), (256, 4), (256, 64))
PATH_REPEATS = 3


class PathCell(NamedTuple):
    vectorized_ms: float
    wide_ms: float


def path_matrix(seed: int, tally: Tally, fingerprint: wl.Fingerprint) -> dict:
    """The same BiCGSTAB+Jacobi batches through the vectorized core and the wide kernel.

    Returns ``{"n32_b4": PathCell, ...}``; each time is the median of
    :data:`PATH_REPEATS` calls, and every answer is checked.
    """
    device = pvc_stack_device(1)
    factory = BatchSolverFactory(solver="bicgstab", preconditioner="jacobi", tolerance=TOLERANCE)
    cells: dict = {}
    for n, nb in PATH_CELLS:
        rng = wl.rng_for(seed, wl.STREAM_SYSTEMS, n, nb)
        pattern = wl.stencil_pattern(n)
        values = wl.stencil_values(n, nb, False, rng)
        b = rng.standard_normal((nb, n))
        fingerprint.add(values, b)
        matrix = BatchCsr(pattern.row_ptrs, pattern.col_idxs, values)
        vec_ms, wide_ms = [], []
        for _ in range(PATH_REPEATS):
            t0 = time.perf_counter()
            result = factory.solve(matrix, b)
            t1 = time.perf_counter()
            inv_diag = BatchJacobi(matrix).inv_diag
            x, _iters, _event = bicgstab_kernel.run_batch_bicgstab_on_device(
                device, matrix, b, inv_diag=inv_diag, tolerance=TOLERANCE,
                max_iterations=500, queue=WideQueue(device),
            )
            t2 = time.perf_counter()
            vec_ms.append((t1 - t0) * 1e3)
            wide_ms.append((t2 - t1) * 1e3)
            for xs in (result.x, x):
                tally.check(wl.rel_residuals(pattern, values, b, xs))
        cells[f"n{n}_b{nb}"] = PathCell(float(np.median(vec_ms)), float(np.median(wide_ms)))
    return cells
