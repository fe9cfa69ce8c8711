#!/usr/bin/env python
"""Fast contract checks of the autotuning subsystem (CI smoke).

Small workload, tiny budget, temp-file TuningDB — verifies in a few
seconds that:

* seeded random search runs under budget and never loses to the default;
* the same seed replays the identical search result (determinism);
* a second tune of the same key is a DB cache hit with no new
  measurements, including through a fresh ``TuningDB`` instance reloading
  the persisted file;
* ``clear`` forces a re-search.

With ``--sanitize`` it also launches the fused CG kernel at the geometry
of a freshly tuned record under the kernel sanitizer: the launch must be
violation-free and every system must converge (``--backend wide`` adds a
lockstep re-launch that must match the faithful result).

Usage: python scripts/smoke_tune.py [--sanitize] [--backend BACKEND]
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def check(condition: bool, label: str, failures: list[str]) -> None:
    print(f"  {'ok' if condition else 'FAIL'}: {label}")
    if not condition:
        failures.append(label)


def _run() -> int:
    from repro.hw.specs import gpu
    from repro.tune import RANDOM, Autotuner, TuningDB, stencil_workload

    failures: list[str] = []
    spec = gpu("pvc1")
    workload = stencil_workload(16, nb_solve=4)

    with tempfile.TemporaryDirectory(prefix="smoke_tune_") as tmp:
        db_path = Path(tmp) / "tuning_db.json"
        db = TuningDB(db_path)
        tuner = Autotuner(spec, db=db, strategy=RANDOM, budget=6, seed=3)

        print("tune smoke: seeded random search, tiny budget, temp DB")
        first = tuner.tune(workload)
        check(not first.from_cache, "first tune runs a search", failures)
        check(
            first.record.modeled_seconds <= first.record.default_seconds,
            "tuned config never loses to the default",
            failures,
        )
        check(
            first.search is not None and first.search.evaluations <= 6 + 1,
            "random search respects its budget (+ default measurement)",
            failures,
        )

        measurements = db.metrics.counter("tune.measurements").value
        second = tuner.tune(workload)
        check(second.from_cache, "same-key re-tune is a DB cache hit", failures)
        check(
            db.metrics.counter("tune.measurements").value == measurements,
            "cache hit runs no new measurements",
            failures,
        )

        # determinism: a fresh in-memory search with the same seed replays
        replay = Autotuner(spec, db=TuningDB(), strategy=RANDOM, budget=6, seed=3)
        check(
            replay.tune(workload).record.candidate == first.record.candidate,
            "same seed reproduces the same winner",
            failures,
        )

        # persistence: a brand-new DB instance reloads the stored record
        reloaded = Autotuner(spec, db=TuningDB(db_path), strategy=RANDOM, budget=6, seed=3)
        check(
            reloaded.tune(workload).from_cache,
            "persisted record survives a DB reload",
            failures,
        )

        removed = db.clear(device=spec.device.name)
        check(removed >= 1, "clear removes the stored record", failures)
        check(
            not tuner.tune(workload).from_cache,
            "tune after clear re-searches",
            failures,
        )

    if failures:
        print(f"tune smoke: {len(failures)} failure(s)", file=sys.stderr)
        return 1
    print("tune smoke: OK")
    return 0


def main(argv: list[str] | None = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--sanitize",
        action="store_true",
        help="additionally launch the fused kernel at a freshly tuned "
        "geometry under the kernel sanitizer (tuned geometries must "
        "never trade correctness)",
    )
    parser.add_argument(
        "--backend",
        choices=["sycl", "cuda", "cudasim", "wide"],
        default="sycl",
        help="queue for the tuned-geometry launch: 'wide' uses the "
        "lockstep WideQueue (deferring to the faithful interpreter while "
        "the sanitizer is installed, then re-launching bare in lockstep "
        "for a parity check); cuda/cudasim run the sycl queue here, as "
        "the tuned launch uses the SYCL-dialect kernel",
    )
    args = parser.parse_args(argv)
    code = _run()
    if not args.sanitize or code != 0:
        return code

    import numpy as np

    from repro.hw.specs import gpu
    from repro.instruments import use
    from repro.kernels.cg_kernel import batch_cg_kernel
    from repro.sanitize import Sanitizer, format_summary
    from repro.sycl.memory import LocalSpec
    from repro.sycl.queue import Queue
    from repro.tune import RANDOM, Autotuner, TuningDB, stencil_workload
    from repro.workloads.stencil import stencil_rhs, three_point_stencil

    failures: list[str] = []
    result = Autotuner(gpu("pvc1"), db=TuningDB(), strategy=RANDOM, budget=6, seed=3).tune(
        stencil_workload(16, nb_solve=4)
    )
    geometry = result.record.geometry()

    nb, n = 4, 16
    matrix = three_point_stencil(n, nb)
    b = stencil_rhs(n, nb, seed=5)
    x = np.zeros((nb, n))
    iters = np.zeros(nb, dtype=np.int64)

    if args.backend == "wide":
        from repro.wide.queue import WideQueue

        queue = WideQueue()
    else:
        if args.backend in ("cuda", "cudasim"):
            print(
                "tune smoke: the tuned-geometry launch uses the SYCL-dialect "
                "kernel; running it on the sycl queue"
            )
        queue = Queue()

    def tuned_launch(q, x_out, out_iters):
        q.parallel_for(
            geometry.plan(nb).nd_range(),
            batch_cg_kernel,
            args=(
                matrix.row_ptrs,
                matrix.col_idxs,
                matrix.values,
                b,
                x_out,
                1.0 / matrix.diagonal(),
                1e-8 * np.linalg.norm(b, axis=1),
                200,
                out_iters,
                False,
                None,
            ),
            local_specs=[LocalSpec(name, (n,)) for name in ("r", "z", "p", "t", "x")],
            name="batch_cg_fused_tuned",
        )

    print("\ntune smoke: fused kernel at the tuned geometry, sanitized")
    sanitizer = Sanitizer()
    with use(sanitizer=sanitizer):
        tuned_launch(queue, x, iters)
    check(sanitizer.stats.launches == 1, "sanitizer observed the launch", failures)
    check(sanitizer.clean, "tuned-geometry launch is violation-free", failures)
    check(bool((iters < 200).all()), "every system converged", failures)
    if args.backend == "wide":
        # re-launch bare: the lockstep execution must reproduce the
        # sanitized (faithful-fallback) result at the tuned geometry
        x_wide = np.zeros((nb, n))
        iters_wide = np.zeros(nb, dtype=np.int64)
        tuned_launch(queue, x_wide, iters_wide)
        check(
            bool(np.allclose(x_wide, x, rtol=1e-9, atol=1e-12)),
            "lockstep launch matches the faithful result",
            failures,
        )
        check(
            bool((iters_wide == iters).all()),
            "lockstep iteration counts match",
            failures,
        )
    residual = b - matrix.apply(x)
    rel = np.linalg.norm(residual, axis=1) / np.linalg.norm(b, axis=1)
    check(bool((rel < 1e-7).all()), "solutions solve the systems", failures)
    check(
        result.record.modeled_seconds <= result.record.default_seconds,
        "tuned geometry still beats the default",
        failures,
    )
    print(format_summary(sanitizer))
    if failures:
        print(f"tune smoke (sanitize): {len(failures)} failure(s)", file=sys.stderr)
        return 1
    print("tune smoke (sanitize): OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
