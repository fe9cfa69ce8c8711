#!/usr/bin/env python
"""Benchmark the serving layer: micro-batching win, plan cache, fallback.

Drives ``repro.serve.SolverService`` with a paced synthetic workload (same
3-point-stencil pattern per request, perturbed values) and records:

* a sweep over ``max_batch_size`` at a fixed arrival rate — throughput and
  p50/p99 latency (read from the service's streaming ``serve.latency_hdr_ms``
  histogram, so within one bucket, about 19 %) with batching off
  (``max_batch_size=1``) vs on (>= 64), the acceptance measurement for the
  micro-batcher;
* plan-cache hit rate on a repeated-configuration workload;
* the degradation path: one forced non-convergent system co-batched with
  healthy ones must finish via the direct-LU fallback without failing its
  batch mates.

Writes ``BENCH_serve_throughput.json`` (see ``--out``).

Usage: python scripts/bench_serve.py [--out BENCH_serve_throughput.json]
       [--quick] [--rate 1500] [--requests 192]
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from repro.workloads.arrivals import (
    make_request as _make_request,
    pace,
    poisson_offsets,
    stencil_pattern as _stencil_pattern,
    uniform_offsets,
)


def run_sweep_point(
    *,
    max_batch_size: int,
    arrival_rate: float,
    num_requests: int,
    size: int,
    num_workers: int,
    max_wait_ms: float,
    seed: int = 7,
    backend: str = "sycl",
    execution: str = "vectorized",
    arrival: str = "uniform",
) -> dict:
    """One service lifecycle: paced submission, full drain, measurements."""
    from repro.serve import ServeConfig, SolverService

    config = ServeConfig(
        max_batch_size=max_batch_size,
        max_wait_ms=max_wait_ms,
        max_pending=max(4 * num_requests, 64),
        num_workers=num_workers,
        backend=backend,
        execution=execution,
    )
    pattern = _stencil_pattern(size)
    rng = np.random.default_rng(seed)
    requests = [_make_request(pattern, rng, size) for _ in range(num_requests)]

    if arrival == "poisson":
        offsets = poisson_offsets(arrival_rate, num_requests, rng)
    else:
        offsets = uniform_offsets(arrival_rate, num_requests)
    with SolverService(config) as service:
        start = time.perf_counter()
        tickets = pace(offsets, lambda i: service.submit(requests[i]))
        outcomes = [t.result(timeout=120.0) for t in tickets]
        makespan_s = time.perf_counter() - start

        latency = service.metrics.log_histogram("serve.latency_hdr_ms")
        batch_sizes = service.metrics.log_histogram("serve.batch_size")
        flushes = service.metrics.counter("serve.flushes").value
        fallbacks = service.metrics.counter("serve.fallbacks").value
        hit_rate = service.plan_cache.hit_rate

    assert all(o.converged for o in outcomes), "sweep workload must converge"
    return {
        "max_batch_size": max_batch_size,
        "arrival_rate_rps": arrival_rate,
        "requests": num_requests,
        "makespan_s": round(makespan_s, 4),
        "throughput_rps": round(num_requests / makespan_s, 1),
        "latency_p50_ms": round(latency.percentile(50.0), 3),
        "latency_p99_ms": round(latency.percentile(99.0), 3),
        "latency_mean_ms": round(latency.mean, 3),
        "mean_batch_size": round(batch_sizes.mean, 2),
        "flushes": int(flushes),
        "fallbacks": int(fallbacks),
        "plan_cache_hit_rate": round(hit_rate, 4),
    }


def run_plan_cache_workload(
    *, num_requests: int, size: int, max_batch_size: int = 32, seed: int = 11
) -> dict:
    """Repeated-config workload: every request shares one dispatch tuple."""
    from repro.serve import ServeConfig, SolverService

    config = ServeConfig(
        max_batch_size=max_batch_size,
        max_wait_ms=1.0,
        max_pending=max(4 * num_requests, 64),
        num_workers=2,
    )
    pattern = _stencil_pattern(size)
    rng = np.random.default_rng(seed)
    with SolverService(config) as service:
        tickets = [
            service.submit(_make_request(pattern, rng, size))
            for _ in range(num_requests)
        ]
        for ticket in tickets:
            ticket.result(timeout=120.0)
        hits = service.plan_cache.hits
        misses = service.plan_cache.misses
        hit_rate = service.plan_cache.hit_rate
    return {
        "requests": num_requests,
        "max_batch_size": max_batch_size,
        "lookups": hits + misses,
        "hits": hits,
        "misses": misses,
        "hit_rate": round(hit_rate, 4),
    }


def run_fallback_workload(*, size: int = 24, seed: int = 13) -> dict:
    """One poisoned (non-convergent under CG) system co-batched with healthy."""
    from repro.serve import ServeConfig, SolveRequest, SolverService

    pattern = _stencil_pattern(size)
    rng = np.random.default_rng(seed)

    # Strongly nonsymmetric values on the shared stencil pattern: CG cannot
    # converge, so this request must come back via the direct-LU fallback.
    poisoned_matrix = pattern.copy()
    data = poisoned_matrix.data.copy()
    diag_mask = data > 1  # stencil diagonal entries are 2.0, off-diagonal -1.0
    data[diag_mask] = 2.0
    data[~diag_mask] = np.where(
        np.arange((~diag_mask).sum()) % 2 == 0, 100.0, -99.0
    )
    poisoned_matrix.data = data

    config = ServeConfig(max_batch_size=8, max_wait_ms=5.0, num_workers=1)
    with SolverService(config) as service:
        healthy = [
            service.submit(
                SolveRequest(
                    pattern.copy(),
                    rng.standard_normal(size),
                    solver="cg",
                    preconditioner="jacobi",
                    tolerance=1e-8,
                    max_iterations=40,
                )
            )
            for _ in range(3)
        ]
        bad = service.submit(
            SolveRequest(
                poisoned_matrix,
                rng.standard_normal(size),
                solver="cg",
                preconditioner="jacobi",
                tolerance=1e-8,
                max_iterations=40,
            )
        )
        service.flush()
        healthy_outcomes = [t.result(timeout=60.0) for t in healthy]
        bad_outcome = bad.result(timeout=60.0)
        fallbacks = int(service.metrics.counter("serve.fallbacks").value)
        failed = int(service.metrics.counter("serve.failed").value)

    return {
        "co_batched_healthy": len(healthy_outcomes),
        "poisoned_used_fallback": bool(bad_outcome.used_fallback),
        "poisoned_solver": bad_outcome.solver_name,
        "poisoned_converged": bool(bad_outcome.converged),
        "healthy_all_converged": bool(all(o.converged for o in healthy_outcomes)),
        "healthy_any_fallback": bool(any(o.used_fallback for o in healthy_outcomes)),
        "fallback_flushes": fallbacks,
        "failed_requests": failed,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="BENCH_serve_throughput.json")
    parser.add_argument("--rate", type=float, default=1500.0, help="arrival rate (req/s)")
    parser.add_argument("--requests", type=int, default=192)
    parser.add_argument("--size", type=int, default=32, help="rows per system")
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--wait-ms", type=float, default=2.0)
    parser.add_argument(
        "--batch-sizes", type=int, nargs="+", default=[1, 16, 64],
        help="max_batch_size sweep (must include 1 and >=64 for the headline)",
    )
    parser.add_argument(
        "--backend", choices=["sycl", "cuda", "cudasim", "wide"], default="sycl",
        help="worker-pool backend (cudasim is an alias of cuda)",
    )
    parser.add_argument(
        "--execution", choices=["vectorized", "kernel"], default="vectorized",
        help="solve flushes with the NumPy solvers or the fused device kernels",
    )
    parser.add_argument(
        "--arrival", choices=["uniform", "poisson"], default="uniform",
        help="arrival process (uniform keeps the gated baselines comparable)",
    )
    parser.add_argument("--quick", action="store_true", help="smaller workload")
    parser.add_argument(
        "--seed", type=int, default=7, help="base RNG seed for the workloads"
    )
    args = parser.parse_args(argv)

    if args.quick:
        args.requests = min(args.requests, 96)

    sweep = []
    for mbs in args.batch_sizes:
        point = run_sweep_point(
            max_batch_size=mbs,
            arrival_rate=args.rate,
            num_requests=args.requests,
            size=args.size,
            num_workers=args.workers,
            max_wait_ms=args.wait_ms,
            seed=args.seed,
            backend=args.backend,
            execution=args.execution,
            arrival=args.arrival,
        )
        sweep.append(point)
        print(
            f"max_batch_size={mbs:>3}: {point['throughput_rps']:8.1f} req/s, "
            f"p50 {point['latency_p50_ms']:7.2f} ms, "
            f"p99 {point['latency_p99_ms']:7.2f} ms, "
            f"mean batch {point['mean_batch_size']:5.1f}"
        )

    unbatched = next((p for p in sweep if p["max_batch_size"] == 1), None)
    batched = max(
        (p for p in sweep if p["max_batch_size"] >= 64),
        key=lambda p: p["max_batch_size"],
        default=None,
    )
    batching_win = None
    if unbatched and batched:
        batching_win = {
            "arrival_rate_rps": args.rate,
            "throughput_unbatched_rps": unbatched["throughput_rps"],
            "throughput_batched_rps": batched["throughput_rps"],
            "speedup": round(
                batched["throughput_rps"] / unbatched["throughput_rps"], 2
            ),
            "p50_unbatched_ms": unbatched["latency_p50_ms"],
            "p50_batched_ms": batched["latency_p50_ms"],
            "p99_unbatched_ms": unbatched["latency_p99_ms"],
            "p99_batched_ms": batched["latency_p99_ms"],
        }
        print(
            f"\nbatching win: {batching_win['speedup']}x throughput "
            f"({unbatched['throughput_rps']:.0f} -> {batched['throughput_rps']:.0f} req/s)"
        )

    plan_cache = run_plan_cache_workload(
        num_requests=240 if args.quick else 600, size=args.size, seed=args.seed + 4
    )
    print(
        f"plan cache: {plan_cache['hits']}/{plan_cache['lookups']} hits "
        f"({plan_cache['hit_rate']:.1%}) over {plan_cache['requests']} requests"
    )

    fallback = run_fallback_workload(seed=args.seed + 6)
    print(
        f"fallback: poisoned request solved by {fallback['poisoned_solver']!r} "
        f"(used_fallback={fallback['poisoned_used_fallback']}), "
        f"{fallback['co_batched_healthy']} co-batched healthy requests "
        f"converged={fallback['healthy_all_converged']}, "
        f"failed_requests={fallback['failed_requests']}"
    )

    from repro.bench.schema import bench_payload, write_bench

    report = bench_payload(
        "serve_throughput",
        workload={
            "system_rows": args.size,
            "requests_per_point": args.requests,
            "arrival_rate_rps": args.rate,
            "num_workers": args.workers,
            "max_wait_ms": args.wait_ms,
            "solver": "bicgstab",
            "preconditioner": "jacobi",
            "backend": args.backend,
            "execution": args.execution,
            "arrival": args.arrival,
        },
        metrics={
            "sweep": sweep,
            "batching_win": batching_win,
            "plan_cache": plan_cache,
            "fallback": fallback,
        },
    )
    out = write_bench(args.out, report)
    print(f"\nwrote {out}")

    # acceptance checks (return non-zero so CI can gate on them)
    failures = []
    if batching_win and batching_win["speedup"] <= 1.0:
        failures.append("batched throughput not higher than unbatched")
    if plan_cache["hit_rate"] <= 0.90:
        failures.append(f"plan-cache hit rate {plan_cache['hit_rate']:.1%} <= 90%")
    if not (
        fallback["poisoned_used_fallback"]
        and fallback["poisoned_converged"]
        and fallback["healthy_all_converged"]
        and fallback["failed_requests"] == 0
    ):
        failures.append("fallback degradation contract violated")
    for failure in failures:
        print(f"bench_serve: FAIL — {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
