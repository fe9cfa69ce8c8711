#!/usr/bin/env python
"""Measure sanitizer-off vs sanitizer-on fused-kernel solve time.

The sanitizer is opt-in: production simulator runs pay only a single
installed-observers contextvar lookup per launch, so the *off* path
must stay within noise of the pre-sanitizer baseline. The *on* path routes
every SLM element access through shadow state and every sync through the
epoch bookkeeping — it is allowed to cost a multiple, and this benchmark
records how large that multiple is (with and without source-site capture,
the most expensive part of the checked path).

Writes ``BENCH_sanitize_overhead.json`` at the repo root by default.

Usage: python scripts/bench_sanitize_overhead.py [--out FILE]
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def _time_kernel_solves(repeats: int, num_rows: int, nb: int, config) -> tuple[float, dict]:
    """Total seconds for ``repeats`` fused-CG solves; config=None => unchecked."""
    from repro.instruments import use
    from repro.kernels import run_batch_cg_on_device
    from repro.sanitize import Sanitizer
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
    if config is None:
        start = time.perf_counter()
        for _ in range(repeats):
            solve_once()
        return time.perf_counter() - start, {}

    sanitizer = Sanitizer(config)
    with use(sanitizer=sanitizer):
        solve_once()  # warmup of the checked path
        start = time.perf_counter()
        for _ in range(repeats):
            solve_once()
        elapsed = time.perf_counter() - start
    summary = sanitizer.summary()
    assert summary["violations"] == {}, f"solver kernel not clean: {summary}"
    return elapsed, summary


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="BENCH_sanitize_overhead.json")
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--num-rows", type=int, default=16)
    parser.add_argument("--nb-solve", type=int, default=4)
    args = parser.parse_args(argv)

    from repro.bench.schema import bench_payload, write_bench
    from repro.sanitize import SanitizerConfig

    off_s, _ = _time_kernel_solves(args.repeats, args.num_rows, args.nb_solve, None)
    on_s, on_summary = _time_kernel_solves(
        args.repeats, args.num_rows, args.nb_solve, SanitizerConfig()
    )
    fast_s, _ = _time_kernel_solves(
        args.repeats,
        args.num_rows,
        args.nb_solve,
        SanitizerConfig(record_sites=False),
    )

    payload = bench_payload(
        "sanitize_overhead",
        workload={
            "solver": "cg (fused simulator kernel)",
            "matrix": f"3pt-stencil n={args.num_rows}",
            "num_batch": args.nb_solve,
            "tolerance": 1e-9,
            "repeats": args.repeats,
        },
        metrics={
            "sanitizer_off_s": off_s,
            "sanitizer_on_s": on_s,
            "sanitizer_on_no_sites_s": fast_s,
            "on_slowdown_x": on_s / off_s if off_s > 0 else float("nan"),
            "no_sites_slowdown_x": fast_s / off_s if off_s > 0 else float("nan"),
            "per_solve_off_ms": off_s / args.repeats * 1e3,
            "per_solve_on_ms": on_s / args.repeats * 1e3,
            "checked_per_repeat": {
                "slm_accesses": on_summary["slm_accesses"] // (args.repeats + 1),
                "syncs": on_summary["syncs"] // (args.repeats + 1),
            },
        },
        notes=(
            "sanitizer_off is the production path (no sanitizer installed: one "
            "contextvar lookup per launch); on/no-sites pay per-SLM-access "
            "shadow checks, with and without sys._getframe source-site capture"
        ),
    )
    out = write_bench(args.out, payload)
    print(json.dumps(payload, indent=1))
    print(f"\nwritten to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
