#!/usr/bin/env python
"""Benchmark the autotuning subsystem: tuned vs heuristic launch configs.

Runs the ``repro.tune`` autotuner over several (device, workload) pairs
and records, per pair, the modeled solve time of the tuned configuration
against the Section-3.6 heuristic default. Also exercises the persistence
contract: a second tuning run with the same seed must be a TuningDB cache
hit (no re-measurement), and ``clear`` must force a re-search.

Writes ``BENCH_autotune.json`` (see ``--out``).

Acceptance (non-zero exit on violation):

* the tuned configuration beats the default on >= 2 (device, workload)
  pairs;
* the same-seed re-run hits the database without new measurements;
* clearing the database forces a fresh search.

Usage: python scripts/bench_autotune.py [--out BENCH_autotune.json]
       [--db PATH] [--strategy grid] [--seed 0] [--quick]
"""

from __future__ import annotations

import argparse
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def tuning_pairs(quick: bool) -> list[tuple[str, object]]:
    """The (platform key, workload) pairs the benchmark tunes."""
    from repro.tune import pele_workload, stencil_workload

    pairs = [
        ("pvc1", stencil_workload(32)),
        ("pvc1", pele_workload("drm19")),
        ("pvc2", stencil_workload(32)),
    ]
    if not quick:
        pairs += [
            ("pvc1", stencil_workload(64)),
            ("pvc1", stencil_workload(128)),
            ("pvc2", pele_workload("dodecane_lu")),
        ]
    return pairs


def run_pair(tuner, workload, db) -> dict:
    """Tune one pair and report the tuned-vs-default comparison."""
    start = time.perf_counter()
    outcome = tuner.tune(workload)
    elapsed = time.perf_counter() - start
    record = outcome.record
    return {
        "platform": tuner.spec.key,
        "workload": workload.name,
        "solver": workload.solver,
        "num_rows": workload.num_rows,
        "strategy": record.strategy,
        "evaluations": record.evaluations,
        "from_cache": outcome.from_cache,
        "default_us": round(record.default_seconds * 1e6, 3),
        "tuned_us": round(record.modeled_seconds * 1e6, 3),
        "speedup": round(record.speedup, 4),
        "tuned_candidate": record.candidate.as_dict(),
        "search_seconds": round(elapsed, 3),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="BENCH_autotune.json")
    parser.add_argument(
        "--db", default=None, help="TuningDB path (default: a temp file)"
    )
    parser.add_argument(
        "--strategy", choices=["grid", "coordinate", "random"], default="grid"
    )
    parser.add_argument("--budget", type=int, default=16)
    parser.add_argument(
        "--seed", type=int, default=0, help="random-search seed (replayable)"
    )
    parser.add_argument("--quick", action="store_true", help="fewer pairs")
    args = parser.parse_args(argv)

    from repro.hw.specs import gpu
    from repro.tune import Autotuner, TuningDB, derive_threshold

    if args.db is None:
        tmp = tempfile.NamedTemporaryFile(
            prefix="bench_autotune_", suffix=".json", delete=False
        )
        tmp.close()
        Path(tmp.name).unlink()  # TuningDB wants to create it itself
        db_path = tmp.name
    else:
        db_path = args.db
    db = TuningDB(db_path)

    def tuner_for(platform: str) -> Autotuner:
        return Autotuner(
            gpu(platform),
            db=db,
            strategy=args.strategy,
            budget=args.budget,
            seed=args.seed,
        )

    pairs = tuning_pairs(args.quick)
    results = []
    for platform, workload in pairs:
        row = run_pair(tuner_for(platform), workload, db)
        results.append(row)
        print(
            f"{row['platform']:>5} / {row['workload']:<12} "
            f"default {row['default_us']:>9.2f} us -> tuned {row['tuned_us']:>9.2f} us "
            f"({row['speedup']:.3f}x, {row['evaluations']} evals)"
        )

    # -- persistence contract: same-seed re-run is a pure DB hit --------------
    measurements_before = db.metrics.counter("tune.measurements").value
    platform0, workload0 = pairs[0]
    rerun = tuner_for(platform0).tune(workload0)
    measurements_after = db.metrics.counter("tune.measurements").value
    rerun_is_hit = rerun.from_cache and measurements_after == measurements_before
    print(
        f"same-seed re-run: from_cache={rerun.from_cache}, "
        f"new measurements={int(measurements_after - measurements_before)}"
    )

    # -- clear contract: dropping records forces a re-search ------------------
    removed = db.clear(device=gpu(platform0).device.name)
    after_clear = tuner_for(platform0).tune(workload0)
    clear_forces_search = removed > 0 and not after_clear.from_cache
    print(
        f"clear: removed {removed} record(s); "
        f"re-tune from_cache={after_clear.from_cache}"
    )

    thresholds = {}
    for platform in sorted({p for p, _ in pairs}):
        threshold = derive_threshold(db, gpu(platform).device.name)
        if threshold is not None:
            thresholds[platform] = threshold
            print(f"derived sub-group threshold ({platform}): {threshold} rows")

    from repro.bench.schema import bench_payload, write_bench

    wins = [r for r in results if r["speedup"] > 1.0]
    report = bench_payload(
        "autotune",
        workload={
            "strategy": args.strategy,
            "seed": args.seed,
            "budget": args.budget,
            "quick": bool(args.quick),
            "db_path": db_path,
        },
        metrics={
            "pairs": results,
            "pairs_tuned_beats_default": len(wins),
            "rerun_cache_hit": rerun_is_hit,
            "clear_forces_research": clear_forces_search,
            "derived_thresholds": thresholds,
        },
    )
    out = write_bench(args.out, report)
    print(f"\nwrote {out}")

    # acceptance checks (return non-zero so CI can gate on them)
    failures = []
    if len(wins) < 2:
        failures.append(
            f"tuned beat the default on only {len(wins)} pair(s), need >= 2"
        )
    if not rerun_is_hit:
        failures.append("same-seed re-run was not a pure DB cache hit")
    if not clear_forces_search:
        failures.append("clearing the DB did not force a re-search")
    for failure in failures:
        print(f"bench_autotune: FAIL — {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
