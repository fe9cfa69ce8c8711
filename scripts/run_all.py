#!/usr/bin/env python
"""Reproducibility driver: regenerate every artifact into ``results/``.

The paper's appendix ships ``run-test-dpcpp.sh`` / ``run-test-cuda.sh``
driving its benchmarks; this is the equivalent for the reproduction.
Writes one text file per table/figure plus the ablation outputs.

Usage: python scripts/run_all.py [--out results] [--quick]
"""

from __future__ import annotations

import argparse
import sys
import time
from collections.abc import Callable
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def paper_artifacts(quick: bool = False) -> list[tuple[str, Callable[[], str]]]:
    """``(filename, job)`` for every paper table and figure; ``job()`` is its text."""
    from repro.bench import figures, tables
    from repro.bench.report import format_table

    sizes = (16, 32, 64) if quick else (16, 32, 64, 128, 256, 512)
    batches = (2**13, 2**15, 2**17) if quick else figures.BATCH_SWEEP
    return [
        ("table1_terminology.txt", lambda: format_table(tables.table1_terminology())),
        ("table2_execution_model.txt", lambda: format_table(tables.table2_execution_model())),
        ("table3_features.txt", lambda: format_table(tables.table3_features())),
        ("table4_datasets.txt", lambda: format_table(tables.table4_datasets())),
        ("table5_gpu_specs.txt", lambda: format_table(tables.table5_gpu_specs())),
        (
            "fig4a_matrix_scaling.txt",
            lambda: format_table(figures.fig4a_matrix_scaling(sizes=sizes, nb_solve=8)),
        ),
        (
            "fig4b_batch_scaling.txt",
            lambda: format_table(figures.fig4b_batch_scaling(batches=batches, nb_solve=8)),
        ),
        (
            "fig5_implicit_scaling.txt",
            lambda: format_table(figures.fig5_implicit_scaling(sizes=sizes, nb_solve=8)),
        ),
        (
            "fig6_pele_runtimes.txt",
            lambda: format_table(figures.fig6_pele_runtimes(batches=batches)),
        ),
        (
            "fig7_speedup_summary.txt",
            lambda: format_table(figures.fig7_speedup_summary()),
        ),
        (
            "fig8_roofline.txt",
            lambda: "\n".join(figures.fig8_roofline().lines()),
        ),
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="results", help="output directory")
    parser.add_argument(
        "--quick", action="store_true", help="smaller sweeps (for smoke runs)"
    )
    args = parser.parse_args(argv)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for filename, job in paper_artifacts(quick=args.quick):
        start = time.perf_counter()
        text = job()
        path = out / filename
        path.write_text(text + "\n")
        print(f"wrote {path} ({time.perf_counter() - start:.1f} s)")

    # serving benchmark: the throughput artifact
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import bench_serve

    start = time.perf_counter()
    bench_args = ["--out", str(out / "BENCH_serve_throughput.json")]
    if args.quick:
        bench_args.append("--quick")
    code = bench_serve.main(bench_args)
    if code != 0:
        return code
    print(
        f"wrote {out / 'BENCH_serve_throughput.json'} "
        f"({time.perf_counter() - start:.1f} s)"
    )

    # fleet benchmark: the isolation A/B (one service against two shards
    # with one batch key sick), the drain and the ring remap factors
    import bench_fleet_scaling

    start = time.perf_counter()
    fleet_args = ["--out", str(out / "BENCH_fleet_scaling.json")]
    if args.quick:
        fleet_args.append("--quick")
    code = bench_fleet_scaling.main(fleet_args)
    if code != 0:
        return code
    print(
        f"wrote {out / 'BENCH_fleet_scaling.json'} "
        f"({time.perf_counter() - start:.1f} s)"
    )

    # profiling smoke + overhead benchmark: measured-counter attribution,
    # model drift, and the disabled-path cost bound
    import bench_profile_overhead
    import bench_sanitize_overhead
    import smoke_profile

    start = time.perf_counter()
    code = smoke_profile.main(["--out", str(out / "profile_smoke.folded")])
    if code != 0:
        return code
    print(f"profile smoke OK ({time.perf_counter() - start:.1f} s)")

    start = time.perf_counter()
    code = bench_sanitize_overhead.main(
        ["--out", str(out / "BENCH_sanitize_overhead.json")]
    )
    if code != 0:
        return code
    code = bench_profile_overhead.main(
        [
            "--out",
            str(out / "BENCH_profile_overhead.json"),
            "--baseline",
            str(out / "BENCH_sanitize_overhead.json"),
        ]
    )
    if code != 0:
        return code
    print(
        f"wrote {out / 'BENCH_profile_overhead.json'} "
        f"({time.perf_counter() - start:.1f} s)"
    )

    # tracer overhead artifact (the regression gate checks every manifest
    # entry, so the full artifact set must exist under --out)
    import bench_trace_overhead

    start = time.perf_counter()
    code = bench_trace_overhead.main(
        ["--out", str(out / "BENCH_trace_overhead.json")]
    )
    if code != 0:
        return code
    print(
        f"wrote {out / 'BENCH_trace_overhead.json'} "
        f"({time.perf_counter() - start:.1f} s)"
    )

    # telemetry: SLO monitor self-checks (clean run healthy, seeded
    # regression pages) and the disabled-path overhead artifact
    from repro.__main__ import main as repro_main

    start = time.perf_counter()
    slo_args = ["slo", "check", "--requests", "16", "--epochs", "3", "--size", "8"]
    code = repro_main(slo_args)
    if code != 0:
        return code
    seeded = repro_main(
        slo_args + ["--inject-latency-ms", "5000", "--inject-fraction", "0.4"]
    )
    if seeded == 0:
        print("slo check: seeded latency regression was NOT detected", file=sys.stderr)
        return 1
    print(f"slo check OK (clean healthy, seeded regression pages) "
          f"({time.perf_counter() - start:.1f} s)")

    import bench_telemetry_overhead

    start = time.perf_counter()
    telemetry_args = ["--out", str(out / "BENCH_telemetry_overhead.json")]
    if args.quick:
        telemetry_args.append("--quick")
    code = bench_telemetry_overhead.main(telemetry_args)
    if code != 0:
        return code
    print(
        f"wrote {out / 'BENCH_telemetry_overhead.json'} "
        f"({time.perf_counter() - start:.1f} s)"
    )

    # wide backend: lockstep-vs-faithful differential grid, then the
    # hot-path speedup artifact (hard >= 20x gate inside the bench)
    import bench_wide_speedup

    start = time.perf_counter()
    code = repro_main(["sanitize", "diff", "--backends", "sycl,wide"])
    if code != 0:
        return code
    print(f"wide diff OK ({time.perf_counter() - start:.1f} s)")

    start = time.perf_counter()
    wide_args = ["--out", str(out / "BENCH_wide_speedup.json")]
    if args.quick:
        wide_args.append("--quick")
    code = bench_wide_speedup.main(wide_args)
    if code != 0:
        return code
    print(
        f"wrote {out / 'BENCH_wide_speedup.json'} "
        f"({time.perf_counter() - start:.1f} s)"
    )

    # chaos harness: the seeded fault battery must lose nothing, then the
    # trace-replay SLO artifact (clean compliance + battery + breaker arc)
    import bench_chaos_slo

    start = time.perf_counter()
    code = repro_main(
        ["chaos", "battery", "--requests", "40", "--batch-size", "4", "--size", "12"]
    )
    if code != 0:
        return code
    print(f"chaos battery OK ({time.perf_counter() - start:.1f} s)")

    start = time.perf_counter()
    chaos_args = ["--out", str(out / "BENCH_chaos_slo.json")]
    if args.quick:
        chaos_args.append("--quick")
    code = bench_chaos_slo.main(chaos_args)
    if code != 0:
        return code
    print(
        f"wrote {out / 'BENCH_chaos_slo.json'} "
        f"({time.perf_counter() - start:.1f} s)"
    )

    # flight recorder: the always-on recording bill and the chaos-bundle
    # postmortem attribution gate
    import bench_recorder_overhead

    start = time.perf_counter()
    recorder_args = ["--out", str(out / "BENCH_recorder_overhead.json")]
    if args.quick:
        recorder_args.append("--quick")
    code = bench_recorder_overhead.main(recorder_args)
    if code != 0:
        return code
    print(
        f"wrote {out / 'BENCH_recorder_overhead.json'} "
        f"({time.perf_counter() - start:.1f} s)"
    )

    # regression gate over the freshly regenerated artifacts
    import check_regression

    code = check_regression.main(["--root", str(out)])
    if code != 0:
        return code

    print(f"\nall artifacts in {out}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
