#!/usr/bin/env python
"""Tracing smoke check: run a small traced stencil solve, validate the trace.

Exercises the full observability pipeline end to end — ``repro run --with
trace`` wrapping the ``stencil`` experiment, the Chrome trace-event exporter,
and the schema validator — on a workload small enough for CI. Exits
non-zero (with a diagnostic) if the emitted trace is missing kernel-launch
spans, their LaunchStats arguments, or the per-iteration convergence
counters.

Usage: python scripts/smoke_trace.py [--out results/trace_smoke.json]
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--out",
        default="results/trace_smoke.json",
        help="where to write the Chrome trace (default: results/trace_smoke.json)",
    )
    parser.add_argument("--sizes", type=int, nargs="+", default=[16])
    parser.add_argument("--nb-solve", type=int, default=4)
    args = parser.parse_args(argv)

    from repro.__main__ import main as repro_main
    from repro.observability.export import validate_chrome_trace

    out = Path(args.out)
    cmd = [
        "run",
        "--with",
        "trace",
        "--trace-out",
        str(out),
        "--no-summary",
        "stencil",
        "--sizes",
        *[str(s) for s in args.sizes],
        "--nb-solve",
        str(args.nb_solve),
    ]
    code = repro_main(cmd)
    if code != 0:
        print(f"smoke_trace: 'repro {' '.join(cmd)}' exited {code}", file=sys.stderr)
        return code

    try:
        counts = validate_chrome_trace(out, require_kernel_spans=True, require_counters=True)
    except ValueError as exc:
        print(f"smoke_trace: INVALID trace: {exc}", file=sys.stderr)
        return 1

    print(
        f"smoke_trace: OK — {out} has {counts['spans']} spans "
        f"({counts['kernel_spans']} kernel launches), "
        f"{counts['counters']} counter samples, {counts['instants']} instants"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
