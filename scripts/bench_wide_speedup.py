#!/usr/bin/env python
"""Benchmark the lockstep wide backend against the faithful interpreter.

The wide backend (``repro.wide``) executes one work-group per Python
generator with NumPy arrays along the lane axis, instead of one generator
per work-item. Both backends run the *same* kernel sources in
``repro.kernels``; this benchmark measures what that buys on the hot
path and gates the headline:

* **per-solve speedup** — the fused CG and BiCGSTAB kernels on a batched
  3-point-stencil workload sized to fill the device's widest work-group
  (the regime the backend exists for). The wide side is the median of
  :data:`WIDE_REPEATS` timed runs after one warm-up (the artifact also
  records their min and max); the faithful side is one run, which takes
  about 20 s per solver at the defaults. The hard acceptance gate is a
  **>= 20x** speedup for both solvers; the script exits non-zero below
  that, and ``benchmarks/baseline_manifest.json`` pins the same floor for
  ``scripts/check_regression.py``.
* **agreement** — both backends evaluate every collective with one
  function, so they must return identical solutions and iteration
  counts (``max_iter_delta`` 0, gated in
  ``benchmarks/baseline_manifest.json``); the script exits non-zero
  otherwise. Both solutions must also solve the systems (relative
  residual under a small multiple of the tolerance) within the
  iteration budget.
* **serve stacked win** — the serving layer in kernel-execution mode
  (``ServeConfig(execution="kernel")``) flushed through wide workers vs
  faithful workers: throughput of the same request stream, plus proof
  (via the ``serve.kernel_solves`` counter) that the kernel path
  actually engaged on both sides.

Writes ``BENCH_wide_speedup.json`` (see ``--out``).

Usage: python scripts/bench_wide_speedup.py [--out BENCH_wide_speedup.json]
       [--quick]
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

SPEEDUP_FLOOR = 20.0
#: Timed wide runs per solver; the speedup divides by their median.
WIDE_REPEATS = 5


def _counter_total(counter) -> float:
    """Sum a counter across its label children (parent stays unlabeled)."""
    return counter.value + sum(child.value for child in counter.children())


def run_hot_path(*, nb: int, n: int, tolerance: float, max_iterations: int) -> dict:
    """Time the fused CG/BiCGSTAB kernels: faithful Queue vs WideQueue."""
    from repro.kernels.bicgstab_kernel import run_batch_bicgstab_on_device
    from repro.kernels.cg_kernel import run_batch_cg_on_device
    from repro.sycl.device import pvc_stack_device
    from repro.sycl.queue import Queue
    from repro.wide import WideQueue
    from repro.workloads.stencil import stencil_rhs, three_point_stencil

    matrix = three_point_stencil(n, nb)
    b = stencil_rhs(n, nb, seed=11)
    b_norms = np.linalg.norm(b, axis=1)
    device = pvc_stack_device(1)
    results: dict[str, dict] = {}

    for name, run in (
        ("cg", run_batch_cg_on_device),
        ("bicgstab", run_batch_bicgstab_on_device),
    ):
        # Warm-up on the wide queue pays the one-time kernel lowering cost
        # outside the timed region (the faithful interpreter has no
        # equivalent warm-up state).
        run(
            device, matrix, b,
            tolerance=tolerance, max_iterations=max_iterations,
            queue=WideQueue(device),
        )
        wide_runs_s = []
        for _ in range(WIDE_REPEATS):
            start = time.perf_counter()
            x_wide, iters_wide, _ = run(
                device, matrix, b,
                tolerance=tolerance, max_iterations=max_iterations,
                queue=WideQueue(device),
            )
            wide_runs_s.append(time.perf_counter() - start)
        wide_s = statistics.median(wide_runs_s)

        start = time.perf_counter()
        x_faithful, iters_faithful, _ = run(
            device, matrix, b,
            tolerance=tolerance, max_iterations=max_iterations,
            queue=Queue(device),
        )
        faithful_s = time.perf_counter() - start

        # agreement: one answer from both executors, and it solves the systems
        if not np.array_equal(iters_wide, iters_faithful):
            raise AssertionError(
                f"{name}: iteration counts differ: wide {np.asarray(iters_wide).tolist()}"
                f" vs faithful {np.asarray(iters_faithful).tolist()}"
            )
        if not np.array_equal(x_wide, x_faithful):
            raise AssertionError(f"{name}: wide and faithful solutions differ")
        for backend, x, iters in (
            ("wide", x_wide, iters_wide),
            ("faithful", x_faithful, iters_faithful),
        ):
            if not (np.asarray(iters) < max_iterations).all():
                raise AssertionError(f"{name}/{backend}: a system did not converge")
            rel = np.linalg.norm(b - matrix.apply(x), axis=1) / b_norms
            if not (rel <= 10.0 * tolerance).all():
                raise AssertionError(
                    f"{name}/{backend}: relative residual {rel.max():.3e} "
                    f"exceeds 10x the tolerance"
                )

        speedup = faithful_s / wide_s
        results[name] = {
            "faithful_ms": round(faithful_s * 1e3, 1),
            "wide_ms": round(wide_s * 1e3, 1),
            "wide_repeats": WIDE_REPEATS,
            "wide_ms_min": round(min(wide_runs_s) * 1e3, 1),
            "wide_ms_max": round(max(wide_runs_s) * 1e3, 1),
            "speedup_x": round(speedup, 1),
            "per_solve_faithful_ms": round(faithful_s * 1e3 / nb, 1),
            "per_solve_wide_ms": round(wide_s * 1e3 / nb, 2),
            "iters_faithful_mean": round(float(np.mean(iters_faithful)), 1),
            "iters_wide_mean": round(float(np.mean(iters_wide)), 1),
            "max_iter_delta": int(
                np.abs(np.asarray(iters_wide) - np.asarray(iters_faithful)).max()
            ),
        }
        print(
            f"{name:>8}: faithful {faithful_s * 1e3:8.0f} ms, "
            f"wide {wide_s * 1e3:7.0f} ms (median of {WIDE_REPEATS}), speedup {speedup:5.1f}x "
            f"(iters ~{results[name]['iters_wide_mean']:.0f})"
        )
    return results


def run_serve_stacked(*, size: int, num_requests: int) -> dict:
    """Kernel-execution serving: wide workers vs faithful workers."""
    from repro.serve import ServeConfig, SolveRequest, SolverService
    from repro.workloads.stencil import three_point_stencil

    pattern = three_point_stencil(size, 1).item_scipy(0)

    def make_requests():
        rng = np.random.default_rng(7)
        requests = []
        for _ in range(num_requests):
            matrix = pattern.copy()
            matrix.data = matrix.data * rng.uniform(0.9, 1.1, size=matrix.nnz)
            requests.append(
                SolveRequest(
                    matrix,
                    rng.standard_normal(size),
                    solver="bicgstab",
                    preconditioner="jacobi",
                    tolerance=1e-8,
                )
            )
        return requests

    points = {}
    for backend in ("sycl", "wide"):
        config = ServeConfig(
            max_batch_size=num_requests,
            max_wait_ms=50.0,
            max_pending=4 * num_requests,
            num_workers=1,
            backend=backend,
            execution="kernel",
        )
        with SolverService(config) as service:
            start = time.perf_counter()
            tickets = [service.submit(r) for r in make_requests()]
            service.flush()
            outcomes = [t.result(timeout=600.0) for t in tickets]
            makespan_s = time.perf_counter() - start
            kernel_solves = _counter_total(
                service.metrics.counter("serve.kernel_solves")
            )
            kernel_fallbacks = _counter_total(
                service.metrics.counter("serve.kernel_fallbacks")
            )
        if not all(o.converged for o in outcomes):
            raise AssertionError(f"serve/{backend}: a request failed to converge")
        points[backend] = {
            "makespan_s": round(makespan_s, 2),
            "throughput_rps": round(num_requests / makespan_s, 2),
            "kernel_solves": int(kernel_solves),
            "kernel_fallbacks": int(kernel_fallbacks),
        }
        print(
            f"serve/{backend:>5}: {makespan_s:6.2f} s for {num_requests} requests "
            f"({points[backend]['throughput_rps']:.2f} req/s, "
            f"kernel_solves={points[backend]['kernel_solves']})"
        )

    speedup = (
        points["wide"]["throughput_rps"] / points["sycl"]["throughput_rps"]
    )
    print(f"serve stacked win: {speedup:.1f}x kernel-mode throughput with wide workers")
    return {
        "faithful": points["sycl"],
        "wide": points["wide"],
        "kernel_speedup_x": round(speedup, 1),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="BENCH_wide_speedup.json")
    parser.add_argument(
        "--quick",
        action="store_true",
        help="smaller batch / looser tolerance (same >= 20x gate)",
    )
    args = parser.parse_args(argv)

    # n fills the device's widest work-group (lane axis = 1024): the wide
    # backend's per-round NumPy cost is nearly n-independent while the
    # faithful interpreter steps every work-item, so this is the regime
    # the backend targets. --quick shrinks the batch and loosens the
    # tolerance (fewer iterations), not n — the gate stays >= 20x.
    if args.quick:
        hot = dict(nb=2, n=1024, tolerance=1e-4, max_iterations=600)
        serve = dict(size=128, num_requests=12)
    else:
        hot = dict(nb=4, n=1024, tolerance=1e-6, max_iterations=600)
        serve = dict(size=128, num_requests=24)

    print(
        f"hot path: 3-point stencil, nb={hot['nb']}, n={hot['n']}, "
        f"tol={hot['tolerance']:g}"
    )
    solvers = run_hot_path(**hot)
    print()
    stacked = run_serve_stacked(**serve)

    from repro.bench.schema import bench_payload, write_bench

    report = bench_payload(
        "wide_speedup",
        workload={
            "pattern": "three_point_stencil",
            "num_batch": hot["nb"],
            "num_rows": hot["n"],
            "tolerance": hot["tolerance"],
            "max_iterations": hot["max_iterations"],
            "solvers": ["cg", "bicgstab"],
            "serve_system_rows": serve["size"],
            "serve_requests": serve["num_requests"],
            "quick": bool(args.quick),
        },
        metrics={
            "cg": solvers["cg"],
            "bicgstab": solvers["bicgstab"],
            "serve": stacked,
            "speedup_floor_x": SPEEDUP_FLOOR,
        },
        notes=(
            "Same kernel sources on both backends; wide executes one "
            "work-group per generator with a NumPy lane axis. The >= 20x "
            "floor on cg/bicgstab speedup_x is a hard gate here and in "
            "benchmarks/baseline_manifest.json."
        ),
    )
    out = write_bench(args.out, report)
    print(f"\nwrote {out}")

    failures = []
    for name in ("cg", "bicgstab"):
        speedup = solvers[name]["speedup_x"]
        if speedup < SPEEDUP_FLOOR:
            failures.append(
                f"{name} speedup {speedup:.1f}x below the {SPEEDUP_FLOOR:.0f}x floor"
            )
    if stacked["kernel_speedup_x"] <= 1.0:
        failures.append("wide workers did not beat faithful workers in kernel mode")
    for backend in ("faithful", "wide"):
        if stacked[backend]["kernel_solves"] < 1:
            failures.append(f"serve/{backend}: kernel execution path never engaged")
        if stacked[backend]["kernel_fallbacks"] != 0:
            failures.append(f"serve/{backend}: kernel execution fell back")
    for failure in failures:
        print(f"bench_wide_speedup: FAIL — {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
