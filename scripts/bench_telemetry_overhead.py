#!/usr/bin/env python
"""Measure the telemetry layer's cost on the production solve path.

The request-scoped telemetry added to the serving layer (trace contexts,
structured events, SLO counts) must be near-free when sampling is off —
that disabled path is what every production solve pays. This benchmark
times three configurations of the same solve loop:

* **baseline** — no telemetry constructs at all: no ambient trace
  context, no event log, no tracer (the pre-telemetry hot path);
* **disabled** — the full disabled-path plumbing a served request
  carries: a freshly minted (unsampled) ``TraceContext`` set ambient, an
  installed ``EventLog``, and the serving layer's per-request event call
  sites (admitted / flushed / solved) which head-sampling drops on
  entry;
* **enabled** — everything on: sampled context, retained events and a
  live ``Tracer`` with a span around every solve.

Each configuration runs ``--rounds`` interleaved rounds of ``--repeats``
solves and keeps its fastest round, so scheduler noise does not
masquerade as overhead. The headline metric
``disabled_vs_baseline_pct`` — gated at <= 2 % by
``benchmarks/baseline_manifest.json`` — is the disabled-path plumbing
timed *alone* (solve-free, tens of thousands of iterations) divided by
the baseline per-solve time: a full-loop A/B cannot resolve a
microsecond cost under millisecond-scale solve jitter, so the measured
A/B deltas are recorded as informational metrics only, alongside an
end-to-end serve comparison (sampling off vs fully on).

Writes ``BENCH_telemetry_overhead.json`` at the repo root by default.

Usage: python scripts/bench_telemetry_overhead.py
       [--out BENCH_telemetry_overhead.json] [--quick]
       [--max-disabled-overhead-pct PCT]
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def _solve_loop(repeats: int, factory, matrix, rhs, per_solve=None) -> float:
    """Seconds for ``repeats`` solves, calling ``per_solve`` around each."""
    start = time.perf_counter()
    for _ in range(repeats):
        if per_solve is None:
            factory.solve(matrix, rhs)
        else:
            per_solve(factory, matrix, rhs)
    return time.perf_counter() - start


def _best_of_interleaved(rounds: int, fns: list) -> list[float]:
    """Fastest round per configuration, rounds interleaved.

    Running configuration A's rounds back-to-back and then B's lets CPU
    frequency / allocator drift between the blocks masquerade as A-vs-B
    overhead; interleaving (A B C, A B C, ...) exposes every
    configuration to the same machine state, so the per-config minima are
    comparable at the sub-percent level the 2% gate needs.
    """
    best = [float("inf")] * len(fns)
    for _ in range(rounds):
        for i, fn in enumerate(fns):
            best[i] = min(best[i], fn())
    return best


def _make_workload(num_rows: int, nb: int):
    from repro.core.dispatch import BatchSolverFactory
    from repro.workloads.stencil import stencil_rhs, three_point_stencil

    matrix = three_point_stencil(num_rows, nb)
    rhs = stencil_rhs(num_rows, nb)

    def factory(tracer=None):
        return BatchSolverFactory(
            solver="cg",
            preconditioner="identity",
            criterion="relative",
            tolerance=1e-9,
            max_iterations=4000,
            tracer=tracer,
        )

    return factory, matrix, rhs


def _emit_request_lifecycle(events, ctx) -> None:
    """The serving layer's per-request emit sites, with realistic fields."""
    from repro.telemetry import REQUEST_ADMITTED, REQUEST_SOLVED

    events.emit(
        REQUEST_ADMITTED, ctx=ctx, solver="cg", num_rows=32, matrix_format="csr"
    )
    events.emit(
        REQUEST_SOLVED,
        ctx=ctx,
        latency_ms=2.5,
        iterations=40,
        converged=True,
        fallback=False,
        batch_size=16,
        flush_id="flush-bench",
        queue_wait_ms=0.5,
        tail=False,
    )


def bench_micro(repeats: int, rounds: int, num_rows: int, nb: int) -> dict:
    """The gated A/B/C: baseline vs disabled plumbing vs fully enabled."""
    from repro.instruments import use
    from repro.observability import Tracer
    from repro.telemetry import EventLog, mint_context, use_trace_context

    make_factory, matrix, rhs = _make_workload(num_rows, nb)

    plain = make_factory()
    tracer = Tracer()
    traced = make_factory(tracer=tracer)
    events_off = EventLog(capacity=2048)
    events_on = EventLog(capacity=2048)

    def baseline_round() -> float:
        # no telemetry constructs at all: the pre-telemetry hot path
        return _solve_loop(repeats, plain, matrix, rhs)

    # disabled path: ambient unsampled context + installed log + the
    # serve-layer emit sites, which head-sampling rejects on entry
    def disabled_solve(factory, matrix_, rhs_):
        ctx = mint_context(sampled=False)
        with use_trace_context(ctx):
            factory.solve(matrix_, rhs_)
            _emit_request_lifecycle(events_off, ctx)

    def disabled_round() -> float:
        with use(events=events_off):
            return _solve_loop(repeats, plain, matrix, rhs, per_solve=disabled_solve)

    # enabled path: sampled context, retained events, a live tracer span
    def enabled_solve(factory, matrix_, rhs_):
        ctx = mint_context(sampled=True)
        with use_trace_context(ctx):
            with tracer.span("bench.request", category="serve", context=ctx):
                factory.solve(matrix_, rhs_)
            _emit_request_lifecycle(events_on, ctx)

    def enabled_round() -> float:
        tracer.reset()
        with use(events=events_on, tracer=tracer):
            return _solve_loop(repeats, traced, matrix, rhs, per_solve=enabled_solve)

    # warmups (imports, caches) before any timing
    baseline_round()
    disabled_round()
    enabled_round()
    baseline_s, disabled_s, enabled_s = _best_of_interleaved(
        rounds, [baseline_round, disabled_round, enabled_round]
    )

    # The gated number. A full-loop A/B cannot resolve the disabled path:
    # its true cost is microseconds against a millisecond solve, far
    # below the run-to-run jitter of the solve itself. So the plumbing is
    # timed alone (solve-free, tens of thousands of iterations — a tight,
    # reproducible measurement of exactly the work the disabled path
    # adds) and expressed as a fraction of the baseline solve.
    plumb_iters = 20000
    ctx_warm = mint_context(sampled=False)
    with use(events=events_off), use_trace_context(ctx_warm):
        _emit_request_lifecycle(events_off, ctx_warm)  # warmup
        start = time.perf_counter()
        for _ in range(plumb_iters):
            ctx = mint_context(sampled=False)
            with use_trace_context(ctx):
                _emit_request_lifecycle(events_off, ctx)
        plumb_s = (time.perf_counter() - start) / plumb_iters
    baseline_per_solve_s = baseline_s / repeats

    assert len(events_off) == 0, "unsampled events must be head-dropped"
    assert len(events_on) > 0, "sampled events must be retained"

    return {
        "baseline_per_solve_ms": baseline_per_solve_s * 1e3,
        "disabled_per_solve_ms": disabled_s / repeats * 1e3,
        "enabled_per_solve_ms": enabled_s / repeats * 1e3,
        "disabled_plumbing_us": plumb_s * 1e6,
        "disabled_vs_baseline_pct": 100.0 * plumb_s / baseline_per_solve_s,
        "disabled_vs_baseline_measured_pct": 100.0
        * (disabled_s - baseline_s)
        / baseline_s,
        "enabled_vs_baseline_pct": 100.0 * (enabled_s - baseline_s) / baseline_s,
        "events_dropped_disabled": events_off.summary()["dropped_head"],
        "events_retained_enabled": len(events_on),
    }


def bench_serve(num_requests: int, size: int) -> dict:
    """End-to-end serve comparison: sampling off vs everything on."""
    import numpy as np

    from repro.instruments import use
    from repro.observability import Tracer
    from repro.serve import ServeConfig, SolveRequest, SolverService
    from repro.workloads.stencil import three_point_stencil

    pattern = three_point_stencil(size, 1).item_scipy(0)

    def run(sample_rate: float, tracer) -> float:
        config = ServeConfig(
            max_batch_size=16,
            max_wait_ms=1.0,
            num_workers=2,
            telemetry_sample_rate=sample_rate,
        )
        rng = np.random.default_rng(11)
        with use(tracer=tracer):
            with SolverService(config) as service:
                start = time.perf_counter()
                tickets = []
                for _ in range(num_requests):
                    values = pattern.copy()
                    values.data = values.data * rng.uniform(0.9, 1.1, size=values.nnz)
                    tickets.append(
                        service.submit(
                            SolveRequest(
                                values,
                                rng.standard_normal(size),
                                solver="bicgstab",
                                preconditioner="jacobi",
                                tolerance=1e-8,
                            )
                        )
                    )
                for ticket in tickets:
                    ticket.result(timeout=60.0)
                elapsed = time.perf_counter() - start
        return elapsed

    off_s = run(0.0, None)
    on_s = run(1.0, Tracer())
    return {
        "requests": num_requests,
        "off_per_request_ms": off_s / num_requests * 1e3,
        "on_per_request_ms": on_s / num_requests * 1e3,
        "enabled_overhead_pct": 100.0 * (on_s - off_s) / off_s,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="BENCH_telemetry_overhead.json")
    parser.add_argument("--repeats", type=int, default=40)
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument("--num-rows", type=int, default=32)
    parser.add_argument("--nb-solve", type=int, default=16)
    parser.add_argument("--serve-requests", type=int, default=96)
    parser.add_argument(
        "--max-disabled-overhead-pct",
        type=float,
        default=2.0,
        help="fail (exit 1) when the disabled path costs more than this",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="smaller loops and a relaxed bound for CI smoke runs",
    )
    args = parser.parse_args(argv)
    if args.quick:
        args.repeats = 12
        args.rounds = 3
        args.serve_requests = 32
        args.max_disabled_overhead_pct = max(args.max_disabled_overhead_pct, 15.0)

    from repro.bench.schema import bench_payload, write_bench

    micro = bench_micro(args.repeats, args.rounds, args.num_rows, args.nb_solve)
    serve = bench_serve(args.serve_requests, size=16)

    payload = bench_payload(
        "telemetry_overhead",
        workload={
            "solver": "cg",
            "matrix": f"3pt-stencil n={args.num_rows}",
            "num_batch": args.nb_solve,
            "tolerance": 1e-9,
            "repeats": args.repeats,
            "rounds": args.rounds,
        },
        metrics={**micro, "serve": serve},
        notes=(
            "disabled_vs_baseline_pct is the production bill for shipping "
            "the telemetry layer with sampling off: the plumbing a request "
            "adds (context mint + ambient install + head-dropped event "
            "sites) timed alone and divided by the baseline solve; the "
            "manifest gates it at <= 2%. The *_measured_pct and serve "
            "numbers are informational full-loop A/Bs, whose jitter far "
            "exceeds the disabled path's true microsecond cost."
        ),
    )
    out = write_bench(args.out, payload)
    print(json.dumps(payload, indent=2))
    print(f"\nwrote {out}")

    if micro["disabled_vs_baseline_pct"] > args.max_disabled_overhead_pct:
        print(
            f"FAIL: disabled-path overhead "
            f"{micro['disabled_vs_baseline_pct']:.2f}% exceeds "
            f"{args.max_disabled_overhead_pct:.2f}%",
            file=sys.stderr,
        )
        return 1
    print(
        f"disabled-path overhead {micro['disabled_vs_baseline_pct']:.2f}% "
        f"<= {args.max_disabled_overhead_pct:.2f}% bound"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
