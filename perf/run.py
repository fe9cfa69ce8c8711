#!/usr/bin/env python3
"""The repository benchmark: end-to-end and per-layer numbers for four workloads.

Usage (from the repository root)::

    python perf/run.py                                  # all workloads, seed 1
    python perf/run.py --workload batch_pele --seed 3   # one workload
    python perf/run.py --traced --out perf/out/t.json   # per-layer metrics + path matrix
    python perf/run.py --workload W --seed N --seconds S --trace 0|1

Each workload runs in fresh processes, one at a time: a few set-up-only
processes give the median ``setup_s``, and one process measures. A
traced run of every workload also solves the path matrix once, in its
own process. The benchmark prints ``workload metric value unit`` lines,
then, as its last line, one JSON object ``{"correct", "attempted",
"failed", "metrics"}`` whose metrics are those ``BENCHMARK.json`` names.
It exits 1 when any answer fails its residual check and 2 when the
source tree is missing. ``perf/README.md`` describes the workloads.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

PERF = Path(__file__).resolve().parent
ROOT = PERF.parent
SRC = ROOT / "src"
OUT = PERF / "out"

WORKLOADS = ("serve_keys_open", "serve_newton_warm", "serve_kernel_wide", "batch_pele")
#: Name the path matrix's results go under.
PATHS = "path_matrix"
#: Set-up samples per workload: the measuring process and this many less one set-up-only ones.
SETUP_SAMPLES = 5
SETUP_TIMEOUT_S = 60
MEASURE_TIMEOUT_S = 150


# -- measuring process ----------------------------------------------------------------


def _child(args) -> int:
    """Set up one workload; in ``measure`` mode also run it. Prints one JSON line."""
    # every thread of this process, the service's included, runs on one CPU
    # (gauge.py says why); it is pinned before anything starts a thread
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    from gauge import STEAL_LIMIT, Gauge, reference, steal_s

    if args.child == "paths":
        return _child_paths(args)
    speed = Gauge()
    reference()  # first pass pays NumPy's lazy set-up
    speed.probe()
    import scenarios  # imports repro: only the child processes load the program

    gen_start = time.perf_counter()
    workload = scenarios.WORKLOADS[args.workload[0]](args.seed)
    gen_s = time.perf_counter() - gen_start
    workload.open_service()
    ready_ns, ready_steal_s = time.monotonic_ns(), steal_s()
    speed.probe()
    setup_wall_s = (ready_ns - args.spawned_ns) / 1e9
    setup_raw_s = setup_wall_s - gen_s - speed.seconds
    result = {"setup_s": setup_raw_s / speed.median(), "setup_raw_s": setup_raw_s,
              "setup_calm": ready_steal_s - args.spawned_steal_s <= STEAL_LIMIT * setup_wall_s}
    if args.child == "measure":
        tally = scenarios.Tally()
        if args.trace:
            metrics, extra = _traced(workload, args, tally)
        else:
            steal0, wall0 = steal_s(), time.perf_counter()
            samples = workload.run(args.seconds, tally)
            steal_pct = (steal_s() - steal0) / (time.perf_counter() - wall0) * 100
            metrics = samples.end_to_end()
            metrics["peak_rss_mb"] = (samples.peak_rss_mb or scenarios.peak_rss_mb(), "MB")
            extra = {**samples.diagnostics(), **samples.extra,
                     "host.steal_pct": (steal_pct, "%")}
            head = json.dumps(samples.iterations_head()).encode()
            result["iters_head"] = hashlib.sha256(head).hexdigest()[:16]
        result.update(_verdict(tally), metrics=metrics, extra=extra,
                      fingerprint=workload.fingerprint.hexdigest())
    workload.close()
    print(json.dumps(result))
    return 0


def _verdict(tally) -> dict:
    return {
        "correct": tally.failed == 0, "attempted": tally.attempted, "failed": tally.failed,
        "failures": tally.reasons, "fail_frac": tally.failed / max(1, tally.attempted),
        "worst_residual": tally.worst_residual,
    }


def _traced(workload, args, tally) -> tuple[dict, dict]:
    """Untraced, then traced segment of one workload.

    Returns the per-layer metrics every workload reaches (``BENCHMARK.json``)
    and, separately, those of the layers only this workload's traffic
    reaches: ``serve``/``instr`` on the serving workloads, ``wide`` on
    ``serve_kernel_wide``.
    """
    import layers
    from repro.observability.tracer import Tracer

    segment = args.seconds / 2
    plain = workload.traced_segment(segment, tally).end_to_end()[workload.primary][0]

    tracer = Tracer()
    workload.open_service(tracer=tracer)
    tracer.reset()
    workload.keep_records = True
    probes = layers.Probes().install()
    try:
        samples = workload.traced_segment(segment, tally)
    finally:
        probes.uninstall()
    traced = samples.end_to_end()[workload.primary][0]
    spans = {"serve": layers.serve_spans(tracer), "layers": probes.spans,
             "generator": layers.generator_spans(samples.records)}

    metrics = layers.core_metrics(probes)
    slower = traced / plain if workload.primary.startswith("latency") else plain / traced
    metrics["trace.overhead_pct"] = ((slower - 1.0) * 100.0, "%")

    extra = dict(samples.extra)
    if workload.service is not None:
        extra.update(layers.serve_metrics(samples.records, spans["serve"], probes))
        flushes = layers.stage_self_times(spans["serve"])
        extra["flush_total_ms"] = (sum(flushes.get("flush", [])), "ms")
        extra["stage_self_total_ms"] = (
            sum(sum(v) for k, v in flushes.items() if k != "flush"), "ms")
    kernels = [s for s in probes.spans if s.name == "wide.kernel"]
    if kernels:
        extra.update(layers.wide_metrics(
            [s.dur_ns / 1e6 for s in kernels], sum(s.args["iters_max"] for s in kernels),
            workload.first_call_ms, workload.kernel_core_gap(),
        ))

    stem = OUT / f"{workload.name}-seed{args.seed}"
    layers.write_chrome_trace(stem.with_suffix(".trace.json"), spans)
    layers.write_table(stem.with_suffix(".layers.txt"), workload.name, {**metrics, **extra})
    return metrics, extra


def _child_paths(args) -> int:
    """The path matrix, traced once on its own (``--traced`` over all workloads)."""
    import layers
    import scenarios
    import workloads as wl

    tally, fingerprint = scenarios.Tally(), wl.Fingerprint()
    probes = layers.Probes().install()
    try:
        cells = scenarios.path_matrix(args.seed, tally, fingerprint)
    finally:
        probes.uninstall()
    extra = layers.path_metrics(cells)
    stem = OUT / f"{PATHS}-seed{args.seed}"
    layers.write_chrome_trace(stem.with_suffix(".trace.json"), {"layers": probes.spans})
    layers.write_table(stem.with_suffix(".layers.txt"), PATHS, extra)
    print(json.dumps({**_verdict(tally), "metrics": {}, "extra": extra,
                      "fingerprint": fingerprint.hexdigest()}))
    return 0


# -- orchestration --------------------------------------------------------------------


def _spawn(mode: str, workload: str, args) -> dict:
    from gauge import steal_s

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = "0"  # string-keyed dict layouts repeat from run to run
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--child", mode,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--spawned-ns", str(time.monotonic_ns()),
        "--spawned-steal-s", repr(steal_s()),
    ]
    if workload != PATHS:
        cmd += ["--workload", workload]
    timeout = SETUP_TIMEOUT_S if mode == "setup" else MEASURE_TIMEOUT_S
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT,
                          timeout=timeout, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(workload: str, args) -> dict:
    setups = [] if args.trace else [
        _spawn("setup", workload, args) for _ in range(args.setup_samples - 1)
    ]
    result = _spawn("measure", workload, args)
    setups.append({k: result.pop(k) for k in ("setup_s", "setup_raw_s", "setup_calm")})
    if not args.trace:
        # as with timings (scenarios.Samples): set-ups the host disturbed are
        # left out, unless that leaves fewer than half
        calm = [s for s in setups if s["setup_calm"]]
        kept = calm if 2 * len(calm) >= len(setups) else setups
        result["metrics"]["setup_s"] = (statistics.median(s["setup_s"] for s in kept), "s")
        result["extra"]["setup_s.raw"] = (
            statistics.median(s["setup_raw_s"] for s in setups), "s")
        result["extra"]["setup_samples_left_out"] = (len(setups) - len(kept), "count")
    result["setup_samples"] = [s["setup_s"] for s in setups]
    return result


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", action="append", choices=WORKLOADS,
                   help="workload to run (repeatable; default: all)")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=25.0,
                   help="timed load per workload (default 25)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: traced run reporting per-layer metrics")
    p.add_argument("--traced", dest="trace", action="store_const", const=1,
                   help="same as --trace 1")
    p.add_argument("--quick", action="store_true",
                   help="3 s of load and 2 set-up samples (smoke tests)")
    p.add_argument("--out", type=Path, help="also write every result as JSON here")
    p.add_argument("--child", choices=("setup", "measure", "paths"), help=argparse.SUPPRESS)
    p.add_argument("--spawned-ns", type=int, help=argparse.SUPPRESS)
    p.add_argument("--spawned-steal-s", type=float, help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    args.setup_samples = SETUP_SAMPLES
    if args.quick:
        args.seconds = 3.0
        args.setup_samples = 2
    return args


def main(argv=None) -> int:
    args = _parse(argv)
    if args.child:
        return _child(args)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no source tree at {SRC}; run from a repository checkout", file=sys.stderr)
        return 2
    results = {}
    try:
        for workload in args.workload or WORKLOADS:
            results[workload] = run_workload(workload, args)
        if args.trace and not args.workload:
            results[PATHS] = _spawn("paths", PATHS, args)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"error: benchmark process failed: {exc}", file=sys.stderr)
        return 1

    for workload, result in results.items():
        for name, (value, unit) in {**result["metrics"], **result["extra"]}.items():
            print(f"{workload} {name} {value:.6g} {unit}")
        print(f"{workload} fail_frac {result['fail_frac']:.6g} ratio "
              f"({result['failed']} of {result['attempted']})")
        print(f"{workload} fingerprint {result['fingerprint']}")
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(
            {"seed": args.seed, "seconds": args.seconds, "trace": args.trace,
             "results": results}, indent=1,
        ))

    def metrics_of(result, prefix=""):
        return {prefix + name: {"value": value, "unit": unit}
                for name, (value, unit) in result["metrics"].items()}

    if len(results) == 1:
        (result,) = results.values()
        metrics = metrics_of(result)
    else:
        metrics = {}
        for workload, result in results.items():
            metrics.update(metrics_of(result, f"{workload}/"))
    correct = all(r["correct"] for r in results.values())
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
