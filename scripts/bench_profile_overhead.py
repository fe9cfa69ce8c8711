#!/usr/bin/env python
"""Measure profiler-off vs profiler-on fused-kernel solve time.

The profiler is opt-in, like the sanitizer and the tracer before it: with
no profiler installed every ``kernel_phase(...)`` marker is a single
contextvar lookup returning ``None`` and every counter hook is skipped,
so the *disabled* path must stay within a few percent of the production
baseline recorded by ``scripts/bench_sanitize_overhead.py``
(``metrics.per_solve_off_ms`` — the same fused-CG workload with neither
tool installed). The *enabled* path routes every global/SLM element touch
through a ``CountingArray`` proxy and attributes every flop to a phase;
it is allowed to cost a multiple, recorded here.

Writes ``BENCH_profile_overhead.json`` at the repo root by default.

Usage: python scripts/bench_profile_overhead.py [--out FILE]
       [--baseline BENCH_sanitize_overhead.json]
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def _time_kernel_solves(repeats: int, num_rows: int, nb: int, profiler) -> float:
    """Total seconds for ``repeats`` fused-CG solves; profiler=None => off."""
    from repro.instruments import use
    from repro.kernels import run_batch_cg_on_device
    from repro.sycl.device import pvc_stack_device
    from repro.sycl.queue import Queue
    from repro.workloads.stencil import stencil_rhs, three_point_stencil

    matrix = three_point_stencil(num_rows, nb)
    rhs = stencil_rhs(num_rows, nb)
    device = pvc_stack_device(1)
    queue = Queue(device)

    def solve_once():
        run_batch_cg_on_device(device, matrix, rhs, tolerance=1e-9, queue=queue)
        queue.reset_events()

    solve_once()  # warmup (imports, caches)
    if profiler is None:
        start = time.perf_counter()
        for _ in range(repeats):
            solve_once()
        return time.perf_counter() - start

    with use(profiler=profiler):
        solve_once()  # warmup of the counted path
        start = time.perf_counter()
        for _ in range(repeats):
            solve_once()
        elapsed = time.perf_counter() - start
    return elapsed


def _baseline_per_solve_ms(path: Path) -> float | None:
    """``metrics.per_solve_off_ms`` from the sanitize-overhead artifact."""
    if not path.exists():
        return None
    try:
        from repro.bench.schema import load_bench

        return float(load_bench(path)["metrics"]["per_solve_off_ms"])
    except (ValueError, KeyError, TypeError):
        return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="BENCH_profile_overhead.json")
    parser.add_argument(
        "--baseline",
        default="BENCH_sanitize_overhead.json",
        help="sanitize-overhead artifact whose per_solve_off_ms is the "
        "uninstrumented production baseline (same workload)",
    )
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--num-rows", type=int, default=16)
    parser.add_argument("--nb-solve", type=int, default=4)
    parser.add_argument(
        "--max-disabled-overhead-pct",
        type=float,
        default=5.0,
        help="acceptance bound for the disabled path vs the baseline",
    )
    args = parser.parse_args(argv)

    from repro.bench.schema import bench_payload, write_bench
    from repro.profile import Profiler

    off_s = _time_kernel_solves(args.repeats, args.num_rows, args.nb_solve, None)
    profiler = Profiler()
    on_s = _time_kernel_solves(args.repeats, args.num_rows, args.nb_solve, profiler)
    total = profiler.totals()

    per_solve_off_ms = off_s / args.repeats * 1e3
    per_solve_on_ms = on_s / args.repeats * 1e3
    baseline_ms = _baseline_per_solve_ms(Path(args.baseline))
    disabled_vs_baseline_pct = (
        100.0 * (per_solve_off_ms - baseline_ms) / baseline_ms
        if baseline_ms
        else None
    )

    payload = bench_payload(
        "profile_overhead",
        workload={
            "solver": "cg (fused simulator kernel)",
            "matrix": f"3pt-stencil n={args.num_rows}",
            "num_batch": args.nb_solve,
            "tolerance": 1e-9,
            "repeats": args.repeats,
            "baseline_artifact": str(args.baseline),
        },
        metrics={
            "profiler_off_s": off_s,
            "profiler_on_s": on_s,
            "on_slowdown_x": on_s / off_s if off_s > 0 else float("nan"),
            "per_solve_off_ms": per_solve_off_ms,
            "per_solve_on_ms": per_solve_on_ms,
            "baseline_per_solve_ms": baseline_ms,
            "disabled_vs_baseline_pct": disabled_vs_baseline_pct,
            "counted_per_repeat": {
                "flops": total.flops // (args.repeats + 1),
                "global_bytes": total.global_bytes // (args.repeats + 1),
                "slm_bytes": total.slm_bytes // (args.repeats + 1),
            },
        },
        notes=(
            "profiler_off is the production path (kernel_phase markers hit "
            "a None contextvar); the baseline is the sanitize-overhead "
            "sanitizer_off measurement of the same workload on the same "
            "machine, so disabled_vs_baseline_pct isolates the cost of "
            "having the markers compiled in at all"
        ),
    )
    out = write_bench(args.out, payload)
    print(json.dumps(payload, indent=2))
    print(f"\nwrote {out}")

    if disabled_vs_baseline_pct is None:
        print(
            f"bench_profile_overhead: no baseline at {args.baseline}; "
            "disabled-path bound not checked",
            file=sys.stderr,
        )
        return 0
    if disabled_vs_baseline_pct > args.max_disabled_overhead_pct:
        print(
            f"bench_profile_overhead: FAIL — disabled path "
            f"{disabled_vs_baseline_pct:.1f}% over baseline "
            f"(bound {args.max_disabled_overhead_pct:.1f}%)",
            file=sys.stderr,
        )
        return 1
    print(
        f"disabled path {disabled_vs_baseline_pct:+.1f}% vs baseline "
        f"(bound {args.max_disabled_overhead_pct:.1f}%): OK"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
