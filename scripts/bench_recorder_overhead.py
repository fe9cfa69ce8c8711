#!/usr/bin/env python
"""Measure the flight recorder's always-on cost and attribution accuracy.

The flight recorder is meant to run on every production shard, so its
recording path must be near-free — a few deque appends per flush.
This benchmark gates two numbers:

* ``recorder_vs_baseline_pct`` — the always-on recording bill per solve.
  The per-flush forensic work a recorded serve flush adds (event-tap
  ring appends, the flush record, :func:`repro.recorder.classify.
  solve_summary` over the batch's residual curves, the registry delta
  snapshot) is timed alone at thousands of iterations — a full-loop A/B
  cannot resolve a microsecond cost under millisecond solve jitter — and
  expressed as a fraction of the baseline batched solve. The manifest
  gates it at <= 2%.
* ``attribution.fault_attribution_fraction`` — run the seeded chaos
  battery under a recorder, dump the bundle, feed it through the
  postmortem analyzer, and check that >= 95% of the injected faults come
  back attributed to their fault class with the right victim trace ids.

Measured full-loop A/B deltas (recorder off vs on, micro and end-to-end
serve) are recorded as informational metrics alongside.

Writes ``BENCH_recorder_overhead.json`` at the repo root by default.

Usage: python scripts/bench_recorder_overhead.py
       [--out BENCH_recorder_overhead.json] [--quick]
       [--max-recorder-overhead-pct PCT] [--min-attributed FRACTION]
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
    """Fastest round per configuration, rounds interleaved (A B, A B, ...)
    so machine-state drift cannot masquerade as A-vs-B overhead."""
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
    factory = BatchSolverFactory(
        solver="cg",
        preconditioner="identity",
        criterion="relative",
        tolerance=1e-9,
        max_iterations=4000,
    )
    return factory, matrix, rhs


def _record_one_flush(recorder, registry, curves, converged, iterations, nb) -> None:
    """Exactly the forensic work the serving layer adds per recorded flush."""
    from repro.recorder.classify import solve_summary

    # the event-tap side: two retained lifecycle events (admitted, solved)
    # ring per request on the sampled path
    for i in range(2):
        recorder.record_event(
            {
                "schema_version": 1,
                "type": "request.solved",
                "ts_ns": 0,
                "trace_id": "bench-trace",
                "span_id": None,
                "request_id": "bench-req",
                "keep": "head",
                "fields": {"latency_ms": 2.5, "iterations": 40, "converged": True},
            }
        )
    summary = solve_summary(
        curves,
        converged=converged,
        iterations=iterations,
        max_iterations=4000,
        solver="cg",
        backend="sycl",
    )
    recorder.record_flush(
        summary,
        flush_id="flush-bench",
        reason="size",
        worker="worker-0",
        solve_ms=2.5,
        cache_hit=True,
        trace_ids=["bench-trace"] * nb,
    )
    recorder.observe_registry(registry)


def bench_micro(repeats: int, rounds: int, num_rows: int, nb: int) -> dict:
    """The gated A/B: bare solve loop vs solve loop + recorder plumbing."""
    import numpy as np

    from repro.instruments import use
    from repro.observability.metrics import MetricsRegistry
    from repro.recorder import FlightRecorder

    factory, matrix, rhs = _make_workload(num_rows, nb)

    recorder = FlightRecorder(capacity=1024)
    registry = MetricsRegistry()
    registry.counter("serve.flushes").inc()
    registry.gauge("serve.queue_depth").set(0)
    registry.log_histogram("serve.request_latency_ms").observe(2.5)

    # one real solve supplies realistic residual curves for the
    # classification work the recorder does per flush
    result = factory.solve(matrix, rhs)
    logger = getattr(result, "logger", None)
    if logger is not None and hasattr(logger, "residual_curves"):
        curves = logger.residual_curves()
    else:
        curves = [list(np.geomspace(1.0, 1e-10, 40)) for _ in range(nb)]
    converged = np.ones(len(curves), dtype=bool)
    iterations = np.full(len(curves), 40, dtype=np.int64)

    def baseline_round() -> float:
        return _solve_loop(repeats, factory, matrix, rhs)

    def recorded_solve(factory_, matrix_, rhs_):
        factory_.solve(matrix_, rhs_)
        _record_one_flush(recorder, registry, curves, converged, iterations, nb)

    def recorded_round() -> float:
        with use(recorder=recorder):
            return _solve_loop(repeats, factory, matrix, rhs, per_solve=recorded_solve)

    baseline_round()  # warmups (imports, caches) before any timing
    recorded_round()
    baseline_s, recorded_s = _best_of_interleaved(
        rounds, [baseline_round, recorded_round]
    )

    # The gated number: the recording plumbing timed alone (solve-free,
    # thousands of iterations) over the baseline per-solve time. The
    # full-loop A/B above cannot resolve it — its true cost is
    # microseconds against a millisecond batched solve.
    plumb_iters = 5000
    _record_one_flush(recorder, registry, curves, converged, iterations, nb)  # warm
    start = time.perf_counter()
    for _ in range(plumb_iters):
        _record_one_flush(recorder, registry, curves, converged, iterations, nb)
    plumb_s = (time.perf_counter() - start) / plumb_iters
    baseline_per_solve_s = baseline_s / repeats

    assert recorder.flushes_seen > 0
    assert len(recorder.snapshot()["flushes"]) <= recorder.capacity

    return {
        "baseline_per_solve_ms": baseline_per_solve_s * 1e3,
        "recorded_per_solve_ms": recorded_s / repeats * 1e3,
        "recorder_plumbing_us": plumb_s * 1e6,
        "recorder_vs_baseline_pct": 100.0 * plumb_s / baseline_per_solve_s,
        "recorder_vs_baseline_measured_pct": 100.0
        * (recorded_s - baseline_s)
        / baseline_s,
        "events_ringed": recorder.events_seen,
        "flushes_ringed": recorder.flushes_seen,
    }


def bench_serve(num_requests: int, size: int) -> dict:
    """End-to-end serve A/B: recorder off vs recorder on (informational)."""
    import numpy as np

    from repro.instruments import use
    from repro.recorder import FlightRecorder
    from repro.serve import ServeConfig, SolveRequest, SolverService
    from repro.workloads.stencil import three_point_stencil

    pattern = three_point_stencil(size, 1).item_scipy(0)

    def run(recorder) -> float:
        config = ServeConfig(max_batch_size=16, max_wait_ms=1.0, num_workers=2)
        rng = np.random.default_rng(11)
        with use(recorder=recorder):
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

    off_s = run(None)
    recorder = FlightRecorder(capacity=4096)
    on_s = run(recorder)
    return {
        "requests": num_requests,
        "off_per_request_ms": off_s / num_requests * 1e3,
        "on_per_request_ms": on_s / num_requests * 1e3,
        "on_overhead_pct": 100.0 * (on_s - off_s) / off_s,
        "flushes_recorded": recorder.flushes_seen,
    }


def bench_attribution(tmp_dir: Path, num_requests: int, seed: int) -> dict:
    """Chaos battery -> bundle -> postmortem: do injected faults come back
    attributed to their class with the right victim traces?"""
    from repro.chaos import ChaosInjector, FaultPlan
    from repro.chaos.replay import build_trace, run_replay
    from repro.instruments import use
    from repro.recorder import FlightRecorder, analyze_bundles, load_bundles
    from repro.serve import ServeConfig, SolverService

    chaos = ChaosInjector(FaultPlan.battery(seed=seed))
    items = build_trace(seed=seed, num_requests=num_requests, rate_rps=400.0)
    config = ServeConfig(max_batch_size=8, max_wait_ms=2.0, num_workers=2)
    recorder = FlightRecorder(capacity=8192, shard="bench-attr")
    with use(recorder=recorder):
        report = run_replay(
            items,
            lambda: SolverService(config, chaos=chaos),
            seed=seed,
            result_timeout_s=60.0,
        )
    bundle = recorder.dump(tmp_dir, reason="chaos_fault")
    analysis = analyze_bundles(load_bundles([bundle]))

    # ground truth straight from the recorder's chaos triggers: the
    # injector rings one per fault with the authoritative victim list
    truth = [
        trig
        for trig in recorder.snapshot()["triggers"]
        if trig.get("reason") == "chaos_fault"
    ]
    infra = [
        inc for inc in analysis["incidents"] if inc["source"] == "infrastructure"
    ]
    matched = 0
    for trig in truth:
        hit = any(
            inc["fault_class"] == trig.get("kind")
            and inc.get("flush_id") == trig.get("flush_id")
            and inc.get("trace_id") in (trig.get("trace_ids") or [None])
            and set(trig.get("trace_ids") or []) <= set(inc.get("trace_ids", []))
            for inc in infra
        )
        matched += bool(hit)
    fraction = matched / len(truth) if truth else 0.0
    return {
        "requests": num_requests,
        "faults_injected": len(truth),
        "faults_attributed": matched,
        "fault_attribution_fraction": fraction,
        "failures_seen": len(analysis["failures"]),
        "failures_unattributed": analysis["attribution_counts"]["unattributed"],
        "lost_requests": report.lost,
        "bundle": str(bundle),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="BENCH_recorder_overhead.json")
    parser.add_argument("--repeats", type=int, default=40)
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument("--num-rows", type=int, default=32)
    parser.add_argument("--nb-solve", type=int, default=16)
    parser.add_argument("--serve-requests", type=int, default=96)
    parser.add_argument("--attr-requests", type=int, default=160)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--max-recorder-overhead-pct",
        type=float,
        default=2.0,
        help="fail (exit 1) when always-on recording costs more than this",
    )
    parser.add_argument(
        "--min-attributed",
        type=float,
        default=0.95,
        help="fail (exit 1) when fewer injected faults are attributed",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="smaller loops and a relaxed overhead bound for CI smoke runs",
    )
    args = parser.parse_args(argv)
    if args.quick:
        args.repeats = 12
        args.rounds = 3
        args.serve_requests = 32
        args.attr_requests = 96
        args.max_recorder_overhead_pct = max(args.max_recorder_overhead_pct, 15.0)

    import tempfile

    from repro.bench.schema import bench_payload, write_bench

    micro = bench_micro(args.repeats, args.rounds, args.num_rows, args.nb_solve)
    serve = bench_serve(args.serve_requests, size=16)
    with tempfile.TemporaryDirectory(prefix="repro_bench_recorder_") as tmp:
        attribution = bench_attribution(Path(tmp), args.attr_requests, args.seed)

    payload = bench_payload(
        "recorder_overhead",
        workload={
            "solver": "cg",
            "matrix": f"3pt-stencil n={args.num_rows}",
            "num_batch": args.nb_solve,
            "tolerance": 1e-9,
            "repeats": args.repeats,
            "rounds": args.rounds,
        },
        metrics={**micro, "serve": serve, "attribution": attribution},
        notes=(
            "recorder_vs_baseline_pct is the always-on flight-recorder bill: "
            "the per-flush forensic work (event-tap appends, flush record, "
            "convergence classification, registry delta) timed alone and "
            "divided by the baseline batched solve; the manifest gates it at "
            "<= 2%. attribution.fault_attribution_fraction feeds the chaos "
            "battery's bundle through the postmortem analyzer and checks "
            "injected faults come back attributed to their fault class with "
            "the right victim traces (gated >= 0.95). The *_measured_pct and "
            "serve numbers are informational full-loop A/Bs."
        ),
    )
    out = write_bench(args.out, payload)
    print(json.dumps(payload, indent=2))
    print(f"\nwrote {out}")

    failed = False
    if micro["recorder_vs_baseline_pct"] > args.max_recorder_overhead_pct:
        print(
            f"FAIL: always-on recording overhead "
            f"{micro['recorder_vs_baseline_pct']:.2f}% exceeds "
            f"{args.max_recorder_overhead_pct:.2f}%",
            file=sys.stderr,
        )
        failed = True
    else:
        print(
            f"always-on recording overhead {micro['recorder_vs_baseline_pct']:.2f}% "
            f"<= {args.max_recorder_overhead_pct:.2f}% bound"
        )
    if attribution["fault_attribution_fraction"] < args.min_attributed:
        print(
            f"FAIL: only {attribution['faults_attributed']}/"
            f"{attribution['faults_injected']} injected faults attributed "
            f"({attribution['fault_attribution_fraction']:.2%} < "
            f"{args.min_attributed:.0%})",
            file=sys.stderr,
        )
        failed = True
    else:
        print(
            f"postmortem attribution {attribution['faults_attributed']}/"
            f"{attribution['faults_injected']} injected faults "
            f"({attribution['fault_attribution_fraction']:.2%} >= "
            f"{args.min_attributed:.0%})"
        )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
