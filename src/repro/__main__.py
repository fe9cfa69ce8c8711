"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``tables``   — print Tables 1-5 of the paper.
* ``figures``  — regenerate Figures 4-8 (tables + ASCII charts).
* ``pele``     — the PeleLM study for one mechanism (table + speedup chart).
* ``stencil``  — the scaling study (Figs. 4-5) for chosen sizes.
* ``advisor``  — the Fig. 8 Advisor-style report for a mechanism/platform.
* ``features`` — the dispatch feature matrix (Table 3 + extensions).
* ``serve-demo`` — run a synthetic request workload through the async
  batched-solver service (``repro.serve``) and print its metrics.
* ``fleet-demo`` — the sharded solver fleet (``repro.fleet``): paced
  Poisson/bursty arrivals consistent-hash-routed over N shard replicas,
  a scale-up + graceful-drain lifecycle demonstration, per-shard
  counters and ring occupancy.
* ``run``      — run any other command under observers, e.g.
  ``python -m repro run --with trace,profile --trace-out t.json stencil``:
  ``trace`` exports a Chrome trace (open it in Perfetto), ``sanitize``
  checks every kernel launch, ``profile`` prints measured kernel
  counters, ``slo`` scores every service the command created (non-zero on
  a violation) and ``chaos`` installs the seeded fault battery. The exit
  code propagates, and every observer reports, also after a failure.
* ``profile``  — measured kernel counters (``repro.profile``):
  ``profile report`` prints the per-kernel × per-phase counter
  attribution for both simulated backends, ``profile roofline`` places
  the measured arithmetic intensity on the platform roofline and checks
  it against the analytic model (non-zero exit on drift), and
  ``profile export`` writes flamegraph-ready folded stacks.
* ``slo``      — the SLO monitor (``repro.telemetry``): ``slo check``
  runs a synthetic serve workload on a synthetic multi-hour clock and
  exits non-zero when any burn-rate alert fires (seed a regression with
  ``--inject-latency-ms``), and ``slo report`` prints the burn table (or
  evaluates a Prometheus text dump offline via ``--metrics-in``).
* ``top``      — a live text dashboard over a running synthetic serve
  workload: gauges, counters, latency percentiles with sparklines, SLO
  burn state and the structured event-log tail, one frame per interval.
* ``chaos``    — the fault-injection harness (``repro.chaos``):
  ``chaos replay`` replays a seeded per-tenant trace (diurnal/bursty
  arrivals, mixed mechanisms) against a service or fleet and scores it
  through the SLO monitor (``--faults`` injects the seeded battery;
  non-zero exit on lost tickets or, clean, on SLO violations), and
  ``chaos battery`` is the fault gate — every fault kind must fire, zero
  tickets lost, every failure a structured status.
* ``sanitize`` — the kernel sanitizer (``repro.sanitize``):
  ``sanitize selftest`` runs the seeded-mutation detector battery,
  ``sanitize check <case>`` runs one battery kernel (violations print a
  structured report and exit 1), and ``sanitize diff`` runs the backend
  differential grid, at the Sec. 3.6 launch geometry and at every other
  legal (sub-group, work-group) pair for ``--rows``.
* ``postmortem`` — flight-recorder bundles (``repro.recorder``):
  ``analyze`` attributes incidents, ``timeline`` merges the cross-shard
  event stream and ``diff`` shows what changed between two bundles.
"""

from __future__ import annotations

import argparse
import sys


def _cmd_tables(_args) -> None:
    from repro.bench import tables

    tables.main()


def _cmd_figures(_args) -> None:
    from repro.bench import figures

    figures.main()


def _cmd_features(_args) -> None:
    from repro.bench.report import print_table
    from repro.bench.tables import table3_features

    print_table(table3_features(), "Batched feature support ((+) = library extension)")


def _cmd_pele(args) -> None:
    from repro.bench.ascii_chart import bar_chart
    from repro.bench.figures import fig7_speedup_summary
    from repro.bench.report import print_table

    rows = fig7_speedup_summary(num_batch=args.batch)
    print_table(rows, f"Speedup vs A100 (batch {args.batch})")
    avg = rows[-1]
    print()
    print(
        bar_chart(
            ["A100", "H100", "PVC-1S", "PVC-2S"],
            [
                avg["a100_speedup"],
                avg["h100_speedup"],
                avg["pvc1_speedup"],
                avg["pvc2_speedup"],
            ],
            title="average speedup vs A100",
            unit="x",
        )
    )


def _cmd_stencil(args) -> None:
    from repro.bench.ascii_chart import bar_chart
    from repro.bench.figures import fig4a_matrix_scaling, fig5_implicit_scaling
    from repro.bench.report import print_table

    sizes = tuple(args.sizes)
    rows = fig4a_matrix_scaling(sizes=sizes, nb_solve=args.nb_solve)
    print_table(rows, "Fig 4a: runtime vs matrix size (PVC-1S, 2^17)")
    cg = [r for r in rows if r["solver"] == "cg"]
    print()
    print(
        bar_chart(
            [str(r["num_rows"]) for r in cg],
            [r["runtime_ms"] for r in cg],
            title="BatchCg runtime (ms), log scale",
            log_scale=True,
            unit=" ms",
        )
    )
    rows5 = fig5_implicit_scaling(sizes=sizes, nb_solve=args.nb_solve)
    print_table(rows5, "Fig 5: implicit 2-stack scaling")


def _cmd_serve_demo(args) -> int:
    """Demonstrate the request-serving layer on a synthetic workload."""
    import time as _time

    import numpy as np

    from repro.bench.report import print_table
    from repro.serve import ServeConfig, SolverService
    from repro.workloads.arrivals import make_request, stencil_pattern

    num_tenants = getattr(args, "tenants", 0) or 0
    config = ServeConfig(
        max_batch_size=args.batch_size,
        max_wait_ms=args.wait_ms,
        num_workers=args.workers,
        backend=args.backend,
        execution=args.execution,
        tenant_default_quota=getattr(args, "tenant_quota", None),
    )
    pattern = stencil_pattern(args.size)
    rng = np.random.default_rng(42)

    # --tenants N splits the workload over N tenants cycling through the
    # priority classes, so the demo shows fair-share release order and
    # (with --tenant-quota) per-tenant 429s
    priorities = ("high", "normal", "low")
    tenant_of = (
        (lambda i: f"tenant-{i % num_tenants}") if num_tenants else (lambda i: "default")
    )
    priority_of = (
        (lambda i: priorities[(i % num_tenants) % len(priorities)])
        if num_tenants
        else (lambda i: "normal")
    )

    print(
        f"serve-demo: {args.requests} requests, n={args.size}, "
        f"max_batch_size={config.max_batch_size}, max_wait_ms={config.max_wait_ms}, "
        f"{config.num_workers} x {config.backend} workers"
        + (f", {num_tenants} tenants (quota {config.tenant_default_quota})"
           if num_tenants else "")
    )
    per_tenant: dict[str, dict[str, int]] = {}

    def bucket(tenant: str) -> dict[str, int]:
        return per_tenant.setdefault(
            tenant, {"submitted": 0, "completed": 0, "rejected": 0}
        )

    start = _time.perf_counter()
    with SolverService(config) as service:
        from repro.exceptions import ServiceSaturatedError

        tickets = []
        for i in range(args.requests):
            request = make_request(
                pattern, rng, args.size, args.solver,
                tenant=tenant_of(i), priority=priority_of(i),
            )
            bucket(request.tenant)["submitted"] += 1
            try:
                tickets.append((request.tenant, service.submit(request)))
            except ServiceSaturatedError:
                # quota / backpressure rejections are part of the demo
                bucket(request.tenant)["rejected"] += 1
        outcomes = []
        for tenant, ticket in tickets:
            outcome = ticket.result(timeout=60.0)
            bucket(tenant)["completed"] += 1
            outcomes.append(outcome)
    elapsed = _time.perf_counter() - start

    served = [o for o in outcomes if o is not None]
    sizes = [o.batch_size for o in served]
    print(
        f"\nserved {len(served)} requests in {elapsed * 1e3:.1f} ms "
        f"({len(served) / elapsed:.0f} req/s), mean batch size "
        f"{sum(sizes) / len(sizes):.1f}, plan-cache hit rate "
        f"{service.plan_cache.hit_rate:.0%}"
    )

    def count(name: str) -> int:
        return int(service.metrics.counter(name).value)

    print(
        f"plan cache: {count('serve.plan_cache.hits')} hits, "
        f"{count('serve.plan_cache.misses')} misses, "
        f"{count('serve.plan_cache.evictions')} evictions"
    )
    print(
        f"fallbacks: {count('serve.fallbacks')} solved by direct-LU, "
        f"{count('serve.fallback_failures')} failed"
    )
    if num_tenants:
        ledger = service.batcher.ledger.snapshot()
        rows = [
            {
                "tenant": tenant,
                **counts,
                "virtual_time": f"{ledger.get(tenant, 0.0):.1f}",
            }
            for tenant, counts in sorted(per_tenant.items())
        ]
        print()
        print_table(rows, "per-tenant QoS (fair-share virtual time)")
    print()
    print_table(service.metrics.rows(), "serve metrics")
    _dump_telemetry(args, service.metrics, service.events)
    return 0


def _dump_telemetry_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--metrics-out",
        default=None,
        help="dump the metrics in Prometheus text format to this file",
    )
    parser.add_argument(
        "--events-out",
        default=None,
        help="write the structured telemetry event log (JSONL) to this file",
    )


def _dump_telemetry(args, metrics, events) -> None:
    """``--metrics-out`` (Prometheus text) and ``--events-out`` (JSONL) dumps."""
    if args.metrics_out:
        from repro.observability import render_prometheus

        with open(args.metrics_out, "w", encoding="utf-8") as fh:
            fh.write(render_prometheus(metrics))
        print(f"prometheus metrics written to {args.metrics_out}")
    if args.events_out:
        path = events.write_jsonl(args.events_out)
        print(f"{len(events)} telemetry events written to {path}")


def _cmd_fleet_demo(args) -> int:
    """Demonstrate the fleet: routing, scale-up, graceful drain."""
    import time as _time

    import numpy as np

    from repro.bench.report import print_table
    from repro.fleet import FleetConfig, FleetService
    from repro.serve import ServeConfig
    from repro.workloads.arrivals import (
        bursty_offsets,
        keyed_requests,
        pace,
        poisson_offsets,
        stencil_pattern,
    )

    config = FleetConfig(
        serve=ServeConfig(
            max_batch_size=args.batch_size,
            max_wait_ms=5.0,
            max_pending=max(4 * args.requests, 64),
            num_workers=1,
            backend=args.backend,
        ),
        initial_replicas=args.shards,
        virtual_nodes=128,
        max_pending=max(8 * args.requests, 256),
    )
    pattern = stencil_pattern(args.size)
    rng = np.random.default_rng(args.seed)
    requests = keyed_requests(
        pattern, rng, args.size, args.requests, args.keys,
        solver="cg", layout="grouped", tolerance=1e-5,
    )
    if args.arrival == "bursty":
        offsets = bursty_offsets(args.rate, args.requests, rng)
    else:
        offsets = poisson_offsets(args.rate, args.requests, rng)

    print(
        f"fleet-demo: {args.requests} requests over {args.keys} keys at "
        f"~{args.rate:.0f} req/s ({args.arrival} arrivals), "
        f"{args.shards} shard(s)"
    )
    with FleetService(config) as fleet:
        start = _time.perf_counter()
        tickets = pace(offsets, lambda i: fleet.submit(requests[i]))
        fleet.flush()
        outcomes = [t.result(timeout=120.0) for t in tickets]
        elapsed = _time.perf_counter() - start

        # lifecycle demo: add a replica (~1/N of keys remap to it), then
        # drain one gracefully with the fleet still open
        print(f"scale-up: started {', '.join(fleet.scale_up(1))}")
        peak_replicas = fleet.num_replicas
        print(f"scale-down: drained {', '.join(fleet.scale_down(1))} (zero drops)")

        stats = fleet.shard_stats()
        occupancy = fleet.ring_occupancy()
        hdr = fleet.latency_histogram()
        converged = sum(1 for o in outcomes if o.converged)
        rebalances = sum(
            1 for ev in fleet.events.events() if ev.type == "fleet.rebalance"
        )
        print(
            f"\nserved {converged}/{len(outcomes)} requests in {elapsed:.2f} s "
            f"({len(outcomes) / elapsed:.0f} req/s), fleet p50/p99 "
            f"{hdr.percentile(50.0):.2f}/{hdr.percentile(99.0):.2f} ms, "
            f"peak replicas {peak_replicas}, {rebalances} rebalance events"
        )
        print()
        for row in stats:
            row["p99_ms"] = round(row["p99_ms"], 2)
            row["ring_share"] = f"{occupancy.get(row['shard'], 0.0):.1%}"
        print_table(stats, "per-shard counters")
        print()
        print_table(fleet.metrics.rows(), "fleet metrics")
        _dump_telemetry(args, fleet.metrics, fleet.events)
    return 0 if converged == len(outcomes) else 1


def _cmd_advisor(args) -> None:
    from repro.bench.figures import fig8_roofline

    report = fig8_roofline(
        mechanism=args.mechanism, platform=args.platform, num_batch=args.batch
    )
    for line in report.lines():
        print(line)


def _sanitize_selftest(_args) -> int:
    """Run the seeded-mutation battery; non-zero unless every case passes."""
    from repro.sanitize.selftest import run_selftest

    results = run_selftest()
    width = max(len(r.name) for r in results)
    failures = 0
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        failures += not r.passed
        expect = r.expect if r.expect is not None else "clean"
        got = r.got if r.got is not None else "clean"
        print(f"  {status}  {r.name:<{width}}  expect={expect}  got={got}")
    total = len(results)
    print(
        f"\nsanitizer selftest: {total - failures}/{total} cases passed "
        f"({sum(1 for r in results if r.expect)} mutants, "
        f"{sum(1 for r in results if r.expect is None)} clean)"
    )
    return 1 if failures else 0


def _sanitize_check(args) -> int:
    """Run one battery kernel; a violation prints its report and exits 1."""
    from repro.sanitize.selftest import case_by_name, run_case

    try:
        case = case_by_name(args.case)
    except KeyError as exc:
        raise SystemExit(f"repro sanitize check: {exc.args[0]}") from None
    result = run_case(case)
    if result.got is None:
        print(f"{case.name}: no violation")
        return 0
    print(result.message)
    return 1


def _sanitize_diff(args) -> int:
    """Run the differential grid on a seeded random SPD batch."""
    import numpy as np

    from repro.sanitize.diff import BACKENDS, kernel_grid, run_differential
    from repro.serve.config import BACKEND_ALIASES

    backends = tuple(
        BACKEND_ALIASES.get(name, name)
        for name in args.backends.split(",")
        if name
    )
    unknown = [name for name in backends if name not in BACKENDS]
    if unknown:
        raise SystemExit(
            f"repro sanitize diff: unknown backend(s) {unknown}; "
            f"choose from {BACKENDS}"
        )

    rng = np.random.default_rng(args.seed)
    nb, n = args.batch, args.rows
    dense = np.zeros((nb, n, n))
    for k in range(nb):
        a = rng.standard_normal((n, n)) * 0.1
        dense[k] = np.eye(n) + a @ a.T
    b = rng.standard_normal((nb, n))

    cases = kernel_grid(f"seed{args.seed}", n, backends=backends)
    disagreements = 0
    for case in cases:
        outcome = run_differential(dense, b, case)
        disagreements += not outcome.agree
        print(outcome.describe())
    print(
        f"\ndifferential grid: {disagreements} disagreement(s) over "
        f"{len(cases)} cases (batch {nb}, {n} rows, seed {args.seed}, "
        f"backends {','.join(backends)})"
    )
    return 1 if disagreements else 0


def _profile_workload_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--workload",
        default="drm19",
        help="PeleLM mechanism name or stencil:<n> (default drm19)",
    )
    parser.add_argument("--batch", type=int, default=8)
    parser.add_argument("--solvers", default="cg,bicgstab")
    parser.add_argument("--backends", default="sycl,cuda")
    parser.add_argument("--max-iters", type=int, default=40)
    parser.add_argument("--tolerance", type=float, default=1e-8)


def _profile_workload(args, solvers: tuple, backends: tuple) -> dict:
    """Profile the parsed ``--workload``; unknown names are a usage error (2)."""
    from repro.profile.runner import profile_workload

    try:
        return profile_workload(
            args.workload,
            solvers=solvers,
            backends=backends,
            num_batch=args.batch,
            tolerance=args.tolerance,
            max_iterations=args.max_iters,
        )
    except ValueError as exc:  # unknown workload/solver/backend names
        print(f"repro profile: {exc}", file=sys.stderr)
        raise SystemExit(2) from None


def _profile_report(args) -> int:
    """Per-kernel × per-phase measured-counter attribution, both backends."""
    from repro.profile.report import format_report

    profilers = _profile_workload(
        args, tuple(args.solvers.split(",")), tuple(args.backends.split(","))
    )
    print(
        format_report(
            profilers, f"measured counters: {args.workload} (batch {args.batch})"
        )
    )
    return 0


def _profile_roofline(args) -> int:
    """Measured roofline placement + model-drift verdict (exit 1 on drift)."""
    from repro.hw.specs import gpu
    from repro.profile.roofline import (
        DEFAULT_TOLERANCE,
        drift_report,
        modeled_intensities,
        place_measured,
    )
    from repro.profile.runner import build_workload

    backend = "cuda" if args.platform in ("a100", "h100") else "sycl"
    profiler = _profile_workload(args, (args.solver,), (backend,))[backend]
    tolerance = DEFAULT_TOLERANCE if args.drift_tolerance is None else args.drift_tolerance
    spec = gpu(args.platform)
    matrix, b = build_workload(args.workload, num_batch=args.batch)
    modeled = modeled_intensities(
        spec,
        matrix,
        b,
        solver=args.solver,
        tolerance=args.tolerance,
        max_iterations=args.max_iters,
    )

    failed = False
    for name in profiler.kernel_names():
        profile = profiler.profile_for(name)
        report = drift_report(profile, spec, modeled, tolerance=tolerance)
        print(report.describe())
        failed |= not report.ok
        # placement against the modeled device time for this spec
        point = place_measured(profile, spec, runtime_seconds=1e-3)
        print(
            f"  roofline: binding roof = {point.binding_roof}, attainable "
            f"{point.attainable_gflops:.1f} GFLOP/s "
            f"(compute roof {point.compute_roof_gflops:.0f})"
        )
    return 1 if failed else 0


def _profile_export(args) -> int:
    """Folded-stack (flamegraph) and JSON snapshot export."""
    import json as _json

    from repro.profile.folded import folded_lines, write_folded

    profilers = _profile_workload(
        args, tuple(args.solvers.split(",")), tuple(args.backends.split(","))
    )
    lines: list[str] = []
    for backend in sorted(profilers):
        lines.extend(
            f"{backend};{line}" for line in folded_lines(profilers[backend], args.weight)
        )
    write_folded(lines, args.out)
    print(f"wrote {len(lines)} folded stacks to {args.out} (weight: {args.weight})")
    if args.json_out:
        snapshot = {b: p.snapshot() for b, p in sorted(profilers.items())}
        with open(args.json_out, "w", encoding="utf-8") as fh:
            _json.dump(snapshot, fh, indent=2, sort_keys=True)
        print(f"wrote counter snapshot to {args.json_out}")
    return 0


def _slo_specs(path: str | None, threshold_ms: float):
    """Objectives for ``slo`` and ``run --with slo``: file or stock defaults."""
    from repro.telemetry import default_slos, load_slos

    if path:
        return load_slos(path)
    return default_slos(latency_threshold_ms=threshold_ms)


def _slo_run_synthetic(args):
    """Drive a synthetic serve workload on a synthetic multi-hour clock.

    Each epoch submits ``--requests`` real requests through a
    :class:`~repro.serve.service.SolverService`, optionally seeds a
    latency regression (``--inject-latency-ms`` observed for
    ``--inject-fraction`` of the epoch's requests — the knob CI flips to
    prove the alert pages), then advances the synthetic clock by
    ``--epoch-minutes`` and samples the monitor. Returns the monitor and
    its final statuses.
    """
    import numpy as np

    from repro.serve import ServeConfig, SolverService
    from repro.telemetry import SloMonitor
    from repro.workloads.arrivals import make_request, stencil_pattern

    state = {"now": 0.0}
    config = ServeConfig(
        max_batch_size=args.batch_size,
        max_wait_ms=1.0,
        num_workers=args.workers,
        backend=args.backend,
    )
    pattern = stencil_pattern(args.size)
    rng = np.random.default_rng(args.seed)

    with SolverService(config) as service:
        monitor = SloMonitor(
            service.metrics,
            specs=_slo_specs(args.specs, args.threshold_ms),
            clock=lambda: state["now"],
        )
        monitor.sample()
        hdr = service.metrics.log_histogram("serve.latency_hdr_ms")
        for _epoch in range(args.epochs):
            tickets = [
                service.submit(make_request(pattern, rng, args.size, args.solver))
                for _ in range(args.requests)
            ]
            for ticket in tickets:
                ticket.result(timeout=60.0)
            if args.inject_latency_ms > 0:
                for _ in range(int(round(args.inject_fraction * args.requests))):
                    hdr.observe(args.inject_latency_ms)
            state["now"] += args.epoch_minutes * 60.0
            monitor.sample()
        statuses = monitor.evaluate(now=state["now"])
    return monitor, statuses


def _slo_offline_statuses(args):
    """Score a Prometheus text dump against the objectives (no windows)."""
    from pathlib import Path

    from repro.telemetry import SloStatus, counts_from_prometheus

    text = Path(args.metrics_in).read_text(encoding="utf-8")
    statuses = []
    for spec in _slo_specs(args.specs, args.threshold_ms):
        bad, total = counts_from_prometheus(spec, text)
        statuses.append(SloStatus(spec=spec, bad=bad, total=total))
    return statuses


def _cmd_slo(args) -> int:
    """The ``slo check`` / ``slo report`` forms (synthetic or offline)."""
    from repro.bench.report import print_table
    from repro.observability.metrics import MetricsRegistry
    from repro.telemetry import SloMonitor

    mode = args.mode
    if args.metrics_in:
        statuses = _slo_offline_statuses(args)
        monitor = SloMonitor(MetricsRegistry(), specs=[s.spec for s in statuses])
        print_table(monitor.report_rows(statuses), f"slo compliance ({args.metrics_in})")
        failing = [s for s in statuses if not s.compliant]
    else:
        minutes = args.epochs * args.epoch_minutes
        print(
            f"slo {mode}: {args.epochs} epochs x {args.requests} requests, "
            f"synthetic clock {minutes:.0f} min"
            + (
                f", seeded regression {args.inject_latency_ms:.0f} ms on "
                f"{args.inject_fraction:.0%} of requests"
                if args.inject_latency_ms > 0
                else ""
            )
        )
        monitor, statuses = _slo_run_synthetic(args)
        print()
        print_table(monitor.report_rows(statuses), "slo burn state")
        failing = [s for s in statuses if s.burning or not s.compliant]

    if failing:
        names = ", ".join(s.spec.name for s in failing)
        print(f"\nslo {mode}: FAILING — {names}", file=sys.stderr)
        return 1 if mode == "check" else 0
    print(f"\nslo {mode}: all objectives healthy")
    return 0


def _cmd_top(args) -> int:
    """Live text dashboard over a synthetic serve workload; with
    ``--shards`` above 1 it runs a fleet and shows the shard panel."""
    import threading
    import time as _time

    import numpy as np

    from repro.serve import ServeConfig, SolverService
    from repro.telemetry import SloMonitor, dashboard_text, default_slos
    from repro.workloads.arrivals import keyed_requests, make_request, stencil_pattern

    config = ServeConfig(
        max_batch_size=args.batch_size,
        max_wait_ms=2.0,
        num_workers=args.workers,
        backend=args.backend,
    )
    pattern = stencil_pattern(args.size)
    rng = np.random.default_rng(args.seed)
    fleet = monitor = None
    if args.shards > 1:
        from repro.fleet import FleetConfig, FleetService

        # consistent-hash routing is keyed on the batch key, so spread the
        # requests over enough keys to reach every shard
        requests = keyed_requests(
            pattern, rng, args.size, args.requests,
            max(16, 2 * args.shards), solver=args.solver,
        )
        service = fleet = FleetService(
            FleetConfig(serve=config, initial_replicas=args.shards)
        )
        title = "repro top — fleet"
    else:
        requests = [
            make_request(pattern, rng, args.size, args.solver)
            for _ in range(args.requests)
        ]
        service = SolverService(config)
        title = "repro top"

    with service:
        if fleet is None:
            monitor = SloMonitor(
                service.metrics,
                specs=default_slos(latency_threshold_ms=args.threshold_ms),
            )
            monitor.sample()
        stop = threading.Event()

        def feed() -> None:
            # spread the workload across the dashboard's lifetime so the
            # frames show the counters moving
            for k, request in enumerate(requests):
                if stop.is_set():
                    return
                try:
                    service.submit(request).result(timeout=60.0)
                except Exception:
                    return
                if len(requests) > 1 and k % 8 == 7:
                    _time.sleep(min(args.interval / 4.0, 0.05))

        feeder = threading.Thread(target=feed, name="repro-top-feeder", daemon=True)
        feeder.start()
        try:
            for frame in range(args.frames):
                if frame:
                    _time.sleep(args.interval)
                print(
                    dashboard_text(
                        service.metrics,
                        monitor=monitor,
                        events=service.events,
                        fleet=fleet,
                        title=f"{title} — frame {frame + 1}/{args.frames}",
                    )
                )
        finally:
            stop.set()
            feeder.join(timeout=60.0)
    return 0


def _chaos_args(parser: argparse.ArgumentParser) -> None:
    """Shared workload/service flags for ``chaos replay`` and ``chaos battery``."""
    parser.add_argument("--requests", type=int, default=128)
    parser.add_argument("--rate", type=float, default=400.0, help="arrival rate (req/s)")
    parser.add_argument(
        "--pattern", choices=["uniform", "poisson", "bursty", "diurnal"],
        default="diurnal",
    )
    parser.add_argument("--seed", type=int, default=0, help="trace seed")
    parser.add_argument("--fault-seed", type=int, default=0, help="fault-plan seed")
    parser.add_argument("--size", type=int, default=24)
    parser.add_argument("--batch-size", type=int, default=8)
    parser.add_argument("--wait-ms", type=float, default=2.0)
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--keys", type=int, default=4, help="distinct BatchKeys")
    parser.add_argument(
        "--shards", type=int, default=1,
        help="run against a fleet of this many shards (1 = single service)",
    )
    parser.add_argument("--threshold-ms", type=float, default=500.0)
    parser.add_argument("--timeout", type=float, default=30.0,
                        help="per-ticket wait budget (s); expiry counts as lost")
    parser.add_argument("--trace-in", default=None, help="replay this saved trace")
    parser.add_argument("--trace-out", default=None, help="save the trace (JSONL)")


def _chaos_trace_and_factory(args, chaos):
    """Build (trace items, service factory) from parsed chaos flags."""
    from repro.chaos.replay import build_trace, load_trace, save_trace
    from repro.serve import ServeConfig, SolverService

    if args.trace_in:
        items = load_trace(args.trace_in)
    else:
        items = build_trace(
            seed=args.seed,
            num_requests=args.requests,
            rate_rps=args.rate,
            pattern=args.pattern,
            num_keys=args.keys,
        )
    if args.trace_out:
        path = save_trace(items, args.trace_out)
        print(f"trace ({len(items)} items) written to {path}")

    serve_config = ServeConfig(
        max_batch_size=args.batch_size,
        max_wait_ms=args.wait_ms,
        num_workers=args.workers,
    )
    if args.shards > 1:
        from repro.fleet import FleetConfig, FleetService

        fleet_config = FleetConfig(serve=serve_config, initial_replicas=args.shards)
        return items, (lambda: FleetService(fleet_config, chaos=chaos))
    return items, (lambda: SolverService(serve_config, chaos=chaos))


def _chaos_print_report(report, title: str) -> None:
    from repro.bench.report import print_table

    print(
        f"\n{title}: {report.completed}/{report.total} completed, "
        f"{report.failed} failed (structured), {report.rejected} rejected, "
        f"{report.lost} LOST, {report.fallbacks} fallbacks, "
        f"p50/p99 {report.latency_p50_ms:.2f}/{report.latency_p99_ms:.2f} ms "
        f"in {report.duration_s:.2f} s"
    )
    if report.statuses:
        print(
            "status codes: "
            + ", ".join(f"{code}={n}" for code, n in sorted(report.statuses.items()))
        )
    if report.injected:
        print(
            "injected faults: "
            + ", ".join(f"{k}={n}" for k, n in sorted(report.injected.items()))
        )
    print()
    print_table(report.tenant_rows(), "per-tenant outcomes")
    slo_rows = [
        {
            "slo": row["name"],
            "objective": f"{row['objective']:.3f}",
            "good": f"{row['good_fraction']:.4f}",
            "budget_used": f"{row['budget_consumed']:.2f}x",
            "state": "OK" if row["compliant"] else "VIOLATED",
        }
        for row in report.slo_rows
    ]
    print()
    print_table(slo_rows, "SLO verdicts")


def _chaos_replay(args) -> int:
    """``chaos replay``: score a trace replay; non-zero on lost tickets or,
    absent injected faults, on any SLO violation."""
    from repro.chaos import ChaosInjector, FaultPlan
    from repro.chaos.replay import run_replay

    chaos = ChaosInjector(FaultPlan.battery(seed=args.fault_seed)) if args.faults else None
    items, factory = _chaos_trace_and_factory(args, chaos)
    mode = "fault battery" if args.faults else "clean"
    print(
        f"chaos replay ({mode}): {len(items)} requests, pattern={args.pattern}, "
        f"{args.shards} shard(s)"
    )
    report = run_replay(
        items,
        factory,
        seed=args.seed,
        size=args.size,
        latency_threshold_ms=args.threshold_ms,
        result_timeout_s=args.timeout,
    )
    _chaos_print_report(report, "replay")
    if report.lost:
        print(f"\nFAIL: {report.lost} request(s) lost (no structured outcome)")
        return 1
    if not args.faults and not report.slo_compliant:
        print("\nFAIL: SLO violated on a clean replay")
        return 1
    print("\nPASS")
    return 0


def _chaos_battery(args) -> int:
    """``chaos battery``: the seeded fault battery as a gate.

    Passes only when every fault kind fired at least once, zero tickets
    were lost, and every failure carried a structured (non-500) status.
    The whole run executes under a flight recorder; on any failure a
    diagnostic bundle is dumped and its path printed — CI uploads it as
    an artifact, and ``repro postmortem analyze <path>`` explains the
    loss.
    """
    from repro.chaos import ChaosInjector, FaultPlan
    from repro.chaos.plan import FAULT_KINDS
    from repro.chaos.replay import run_replay
    from repro.instruments import use
    from repro.recorder import FlightRecorder

    chaos = ChaosInjector(FaultPlan.battery(seed=args.fault_seed))
    items, factory = _chaos_trace_and_factory(args, chaos)
    print(
        f"chaos battery: {len(items)} requests under "
        f"{len(chaos.plan.specs)} fault specs, {args.shards} shard(s)"
    )
    recorder = FlightRecorder(capacity=4096, shard="chaos-battery")
    with use(recorder=recorder):
        report = run_replay(
            items,
            factory,
            seed=args.seed,
            size=args.size,
            latency_threshold_ms=args.threshold_ms,
            result_timeout_s=args.timeout,
        )
    _chaos_print_report(report, "battery")

    failures = []
    if report.lost:
        failures.append(f"{report.lost} request(s) lost")
    unstructured = report.statuses.get(500, 0)
    if unstructured:
        failures.append(f"{unstructured} failure(s) without a structured status")
    silent = [k for k in FAULT_KINDS if not report.injected.get(k)]
    if silent:
        failures.append(f"fault kind(s) never fired: {', '.join(silent)}")
    if failures:
        bundle = recorder.dump(args.bundle_dir, reason="chaos_battery_failure")
        print("\nFAIL: " + "; ".join(failures))
        print(f"flight-recorder bundle (CI artifact): {bundle}")
        print(f"analyze with: python -m repro postmortem analyze {bundle}")
        return 1
    print(
        f"\nPASS: {report.injected_total} faults injected, zero lost, "
        f"all failures structured"
    )
    if args.dump_bundle:
        bundle = recorder.dump(args.bundle_dir, reason="manual")
        print(f"flight-recorder bundle (CI artifact): {bundle}")
    return 0


def _postmortem_analyze(args) -> int:
    """Incident attribution (infrastructure fault vs. convergence class)."""
    import json
    from pathlib import Path

    from repro.recorder import analyze_bundles, load_bundles, render_analysis

    analysis = analyze_bundles(load_bundles(args.bundles))
    if args.json:
        print(json.dumps(analysis, indent=2, default=str))
    else:
        print(render_analysis(analysis))
    if args.out:
        Path(args.out).write_text(render_analysis(analysis))
        print(f"report written to {args.out}")
    return 0


def _postmortem_timeline(args) -> int:
    """The merged cross-shard event timeline."""
    from repro.recorder import load_bundles, render_timeline

    print(render_timeline(load_bundles(args.bundles), limit=args.limit))
    return 0


def _postmortem_diff(args) -> int:
    """What changed between two bundles."""
    from repro.recorder import diff_bundles, load_bundle, render_diff

    print(render_diff(diff_bundles(load_bundle(args.a), load_bundle(args.b))))
    return 0


def _observe_sanitize(args):
    """Check every kernel launch; print the checking summary."""
    from repro.sanitize import Sanitizer, format_summary

    sanitizer = Sanitizer()

    def report(code: int) -> int:
        # after a violation the summary follows its report on stderr
        stream = sys.stdout if sanitizer.clean else sys.stderr
        print(file=stream)
        print(format_summary(sanitizer), file=stream)
        return code

    return {"sanitizer": sanitizer}, report


def _observe_profile(args):
    """Collect measured kernel counters; print their attribution."""
    from repro.profile import Profiler
    from repro.profile.report import format_report

    profiler = Profiler()

    def report(code: int) -> int:
        print()
        if profiler.kernel_names():
            print(format_report(profiler, "measured kernel counters"))
        else:
            print("profile: no instrumented kernel launches")
        return code

    return {"profiler": profiler}, report


def _observe_chaos(args):
    """Install the seeded fault battery; print what it injected."""
    from repro.chaos import ChaosInjector, FaultPlan

    injector = ChaosInjector(FaultPlan.battery(seed=args.fault_seed))
    print(
        f"chaos: fault battery (seed {args.fault_seed}) installed for: "
        f"{' '.join(args.wrapped)}"
    )

    def report(code: int) -> int:
        counts = injector.injected_by_kind()
        summary = ", ".join(f"{k}={n}" for k, n in sorted(counts.items())) or "none"
        print(
            f"\nchaos: {injector.total_injected} fault(s) injected over "
            f"{injector.flushes_seen} flushes ({summary})"
        )
        return code

    return {"chaos": injector}, report


def _observe_slo(args):
    """Score the metrics of every service the command creates.

    Each :class:`~repro.serve.service.SolverService` registers its metrics
    on the hub and shares the hub's event log. At exit the combined counts
    are scored for overall compliance (a one-shot command has no
    burn-window timeline), and a violation turns exit code 0 into 1, so CI
    can gate any repro command on its SLOs.
    """
    from repro.bench.report import print_table
    from repro.observability.metrics import MetricsRegistry
    from repro.telemetry import SloMonitor, TelemetryHub

    hub = TelemetryHub()
    specs = _slo_specs(args.slo_specs, args.slo_threshold_ms)

    def report(code: int) -> int:
        statuses = hub.slo_statuses(specs)
        monitor = SloMonitor(MetricsRegistry(), specs=specs)
        print()
        print_table(monitor.report_rows(statuses), "slo compliance (wrapped command)")
        if args.slo_events_out:
            path = hub.event_log.write_jsonl(args.slo_events_out)
            print(f"{len(hub.event_log)} telemetry events written to {path}")
        violated = [s for s in statuses if not s.compliant]
        if violated:
            names = ", ".join(s.spec.name for s in violated)
            print(f"slo: VIOLATED — {names}", file=sys.stderr)
            return code or 1
        if not hub.registries:
            print("slo: wrapped command created no services; nothing to score")
        else:
            print("slo: all objectives met")
        return code

    return {"hub": hub, "events": hub.event_log}, report


def _observe_trace(args):
    """Record spans; export the Chrome trace, also of a failed run."""
    from repro.observability import Tracer, format_summary, write_chrome_trace, write_jsonl

    tracer = Tracer()

    def report(code: int) -> int:
        path = write_chrome_trace(tracer, args.trace_out)
        if args.jsonl_out:
            write_jsonl(tracer, args.jsonl_out)
        if not args.no_summary:
            print()
            print(format_summary(tracer))
        print(
            f"\ntrace written to {path} ({len(tracer.spans)} spans, "
            f"{len(tracer.events)} events) — open in Perfetto or chrome://tracing"
        )
        return code

    return {"tracer": tracer}, report


#: The ``run --with`` observers in report order. Each builds its observer
#: and returns the ``repro.instruments.use`` keywords that install it and
#: the reporter called after the command, which maps the exit code. Trace
#: comes last so that "trace written to ..." stays the final line.
_OBSERVERS = {
    "sanitize": _observe_sanitize,
    "profile": _observe_profile,
    "chaos": _observe_chaos,
    "slo": _observe_slo,
    "trace": _observe_trace,
}

#: The ``run`` observer options: dest -> (the observer it configures,
#: default). They parse to None when absent, so an option given without
#: its observer in ``--with`` is caught as a usage error.
_RUN_OPTIONS = {
    "trace_out": ("trace", "trace.json"),
    "jsonl_out": ("trace", None),
    "no_summary": ("trace", False),
    "slo_threshold_ms": ("slo", 500.0),
    "slo_specs": ("slo", None),
    "slo_events_out": ("slo", None),
    "fault_seed": ("chaos", 0),
}


def _observer_names(text: str) -> list[str]:
    """The ``--with`` value: comma-separated names from ``_OBSERVERS``."""
    names = text.split(",")
    if not set(names) <= set(_OBSERVERS):
        raise argparse.ArgumentTypeError(f"choose from {','.join(_OBSERVERS)}, got {text!r}")
    return names


def _cmd_run(args, usage_error) -> int:
    """``run --with OBS[,OBS...] [observer options] [--] <command> [args]``.

    Installs every selected observer with one ``use(...)``, runs the
    command, and has every observer report, also after a failure. The
    exit code: a ``SystemExit`` code propagates (a message string gives
    1), a sanitizer or barrier-divergence error prints its report and
    gives 1, any other exception prints its traceback and gives 1, and an
    SLO violation turns 0 into 1.
    """
    import traceback

    from repro.exceptions import BarrierDivergenceError, SanitizerError
    from repro.instruments import use

    if args.wrapped[:1] == ["--"]:  # REMAINDER keeps the separator
        args.wrapped = args.wrapped[1:]
    if not args.wrapped:
        usage_error("the command to run is missing")
    if args.wrapped[0] == "run":
        usage_error("run cannot wrap run")
    for dest, (observer, default) in _RUN_OPTIONS.items():
        if getattr(args, dest) is None:
            setattr(args, dest, default)
        elif observer not in args.observers:
            usage_error(f"--{dest.replace('_', '-')} needs --with {observer}")

    installs, reporters = {}, []
    for name, observe in _OBSERVERS.items():
        if name in args.observers:
            observers, report = observe(args)
            installs.update(observers)
            reporters.append(report)
    try:
        with use(**installs):
            code = main(args.wrapped)
    except SystemExit as exc:  # argparse errors, explicit exits in the command
        if exc.code is None or isinstance(exc.code, int):
            code = exc.code or 0
        else:
            print(exc.code, file=sys.stderr)
            code = 1
    except (SanitizerError, BarrierDivergenceError) as exc:
        print(str(exc), file=sys.stderr)
        code = 1
    except Exception:
        traceback.print_exc()
        code = 1

    status = code
    for report in reporters:
        status = report(status)
    if code:
        print(f"warning: wrapped command exited {code}", file=sys.stderr)
    return status


def build_parser() -> argparse.ArgumentParser:
    """The repro CLI argument parser (one sub-command per experiment)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Batched iterative solvers — paper reproduction harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("tables", help="print Tables 1-5").set_defaults(fn=_cmd_tables)
    sub.add_parser("figures", help="regenerate Figures 4-8").set_defaults(fn=_cmd_figures)
    sub.add_parser("features", help="dispatch feature matrix").set_defaults(
        fn=_cmd_features
    )

    pele = sub.add_parser("pele", help="PeleLM speedup study (Fig 7)")
    pele.add_argument("--batch", type=int, default=2**17)
    pele.set_defaults(fn=_cmd_pele)

    stencil = sub.add_parser("stencil", help="stencil scaling study (Figs 4-5)")
    stencil.add_argument("--sizes", type=int, nargs="+", default=[16, 32, 64, 128])
    stencil.add_argument("--nb-solve", type=int, default=8)
    stencil.set_defaults(fn=_cmd_stencil)

    advisor = sub.add_parser("advisor", help="Fig 8 Advisor-style report")
    advisor.add_argument("--mechanism", default="dodecane_lu")
    advisor.add_argument("--platform", default="pvc1")
    advisor.add_argument("--batch", type=int, default=2**17)
    advisor.set_defaults(fn=_cmd_advisor)

    serve_demo = sub.add_parser(
        "serve-demo", help="demo the async batched-solver service (repro.serve)"
    )
    serve_demo.add_argument("--requests", type=int, default=256)
    serve_demo.add_argument("--size", type=int, default=32)
    serve_demo.add_argument("--batch-size", type=int, default=32)
    serve_demo.add_argument("--wait-ms", type=float, default=2.0)
    serve_demo.add_argument("--workers", type=int, default=2)
    serve_demo.add_argument(
        "--backend", choices=["sycl", "cuda", "cudasim", "wide"], default="sycl"
    )
    serve_demo.add_argument(
        "--execution", choices=["vectorized", "kernel"], default="vectorized"
    )
    serve_demo.add_argument("--solver", default="bicgstab")
    serve_demo.add_argument(
        "--tenants",
        type=int,
        default=0,
        help="split the workload over this many tenants (cycling through the "
        "high/normal/low priority classes) and print the per-tenant QoS "
        "table; 0 = single default tenant",
    )
    serve_demo.add_argument(
        "--tenant-quota",
        type=int,
        default=None,
        help="max in-flight requests per tenant (submissions over quota are "
        "rejected with a structured 429)",
    )
    _dump_telemetry_args(serve_demo)
    serve_demo.set_defaults(fn=_cmd_serve_demo)

    fleet_demo = sub.add_parser(
        "fleet-demo",
        help="demo the sharded solver fleet (repro.fleet): consistent-hash "
        "routing, scale-up/drain lifecycle",
    )
    fleet_demo.add_argument("--requests", type=int, default=128)
    fleet_demo.add_argument("--keys", type=int, default=32, help="distinct BatchKeys")
    fleet_demo.add_argument("--size", type=int, default=16, help="rows per system")
    fleet_demo.add_argument("--batch-size", type=int, default=4)
    fleet_demo.add_argument(
        "--shards", type=int, default=2, help="initial shard replicas"
    )
    fleet_demo.add_argument(
        "--rate", type=float, default=1000.0, help="arrival rate (req/s)"
    )
    fleet_demo.add_argument(
        "--arrival", choices=["poisson", "bursty"], default="poisson"
    )
    fleet_demo.add_argument(
        "--backend", choices=["sycl", "cuda", "cudasim", "wide"], default="sycl"
    )
    fleet_demo.add_argument("--seed", type=int, default=42)
    _dump_telemetry_args(fleet_demo)
    fleet_demo.set_defaults(fn=_cmd_fleet_demo)

    top = sub.add_parser(
        "top",
        help="live text dashboard over a synthetic serve workload: metrics, "
        "latency sparklines, SLO burn state, recent events",
    )
    top.add_argument("--frames", type=int, default=4)
    top.add_argument("--interval", type=float, default=0.5, help="seconds between frames")
    top.add_argument("--requests", type=int, default=64)
    top.add_argument("--size", type=int, default=16)
    top.add_argument("--batch-size", type=int, default=16)
    top.add_argument("--workers", type=int, default=2)
    top.add_argument(
        "--backend", choices=["sycl", "cuda", "cudasim", "wide"], default="sycl"
    )
    top.add_argument("--solver", default="bicgstab")
    top.add_argument("--threshold-ms", type=float, default=500.0)
    top.add_argument("--seed", type=int, default=0)
    top.add_argument(
        "--shards",
        type=int,
        default=1,
        help="drive a fleet of this many shard replicas and show the "
        "per-shard panel (1 = single service)",
    )
    top.set_defaults(fn=_cmd_top)

    sanitize = sub.add_parser("sanitize", help="kernel sanitizer (repro.sanitize)")
    verbs = sanitize.add_subparsers(required=True)
    selftest = verbs.add_parser("selftest", help="seeded-mutation detector battery")
    selftest.set_defaults(fn=_sanitize_selftest)
    check = verbs.add_parser("check", help="run one battery kernel (violation: exit 1)")
    check.add_argument("case", help="selftest case name, e.g. racy-write")
    check.set_defaults(fn=_sanitize_check)
    diff = verbs.add_parser("diff", help="backend differential grid on a seeded SPD batch")
    diff.add_argument("--seed", type=int, default=0)
    diff.add_argument("--batch", type=int, default=3)
    diff.add_argument(
        "--rows",
        type=int,
        default=16,
        help="rows per system; the launch geometries checked follow from it",
    )
    diff.add_argument(
        "--backends",
        default="sycl,cuda,wide",
        help="comma-separated backend subset of the grid "
        "(sycl, cuda/cudasim, wide)",
    )
    diff.set_defaults(fn=_sanitize_diff)

    profile = sub.add_parser("profile", help="measured kernel counters (repro.profile)")
    verbs = profile.add_subparsers(required=True)
    report = verbs.add_parser("report", help="per-kernel x per-phase counter attribution")
    _profile_workload_args(report)
    report.set_defaults(fn=_profile_report)
    roofline = verbs.add_parser("roofline", help="measured roofline + model-drift verdict")
    _profile_workload_args(roofline)
    roofline.add_argument("--solver", default="cg")
    roofline.add_argument("--platform", default="pvc1")
    roofline.add_argument(
        "--drift-tolerance",
        type=float,
        help="max relative measured-vs-model intensity drift per level (default 0.25)",
    )
    roofline.set_defaults(fn=_profile_roofline)
    export = verbs.add_parser("export", help="folded stacks (flamegraph) + JSON snapshot")
    _profile_workload_args(export)
    export.add_argument("--out", default="profile.folded")
    export.add_argument(
        "--weight",
        default="flops",
        help="counter weighting the stacks (flops, total_bytes, slm_bytes, ...)",
    )
    export.add_argument("--json-out", default=None)
    export.set_defaults(fn=_profile_export)

    slo = sub.add_parser("slo", help="SLO monitor (repro.telemetry)")
    verbs = slo.add_subparsers(required=True)
    for mode, text in (
        ("check", "synthetic workload + burn-rate alerts, non-zero when burning "
         "(seed a regression with --inject-latency-ms)"),
        ("report", "the burn table, or score a Prometheus dump via --metrics-in"),
    ):
        verb = verbs.add_parser(mode, help=text)
        verb.add_argument("--requests", type=int, default=32, help="requests per epoch")
        verb.add_argument("--epochs", type=int, default=6)
        verb.add_argument(
            "--epoch-minutes",
            type=float,
            default=10.0,
            help="synthetic minutes the clock advances per epoch",
        )
        verb.add_argument("--size", type=int, default=16)
        verb.add_argument("--batch-size", type=int, default=16)
        verb.add_argument("--workers", type=int, default=2)
        verb.add_argument(
            "--backend", choices=["sycl", "cuda", "cudasim", "wide"], default="sycl"
        )
        verb.add_argument("--solver", default="bicgstab")
        verb.add_argument("--seed", type=int, default=0)
        verb.add_argument(
            "--threshold-ms",
            type=float,
            default=500.0,
            help="latency objective boundary (ignored with --specs)",
        )
        verb.add_argument("--specs", default=None, help="SLO spec JSON file")
        verb.add_argument(
            "--metrics-in",
            default=None,
            help="score a Prometheus text dump offline instead of running a workload",
        )
        verb.add_argument(
            "--inject-latency-ms",
            type=float,
            default=0.0,
            help="seed a latency regression: observe this latency for a "
            "fraction of each epoch's requests",
        )
        verb.add_argument(
            "--inject-fraction",
            type=float,
            default=0.3,
            help="fraction of each epoch's requests the seeded regression hits",
        )
        verb.set_defaults(fn=_cmd_slo, mode=mode)

    chaos = sub.add_parser("chaos", help="fault injection (repro.chaos)")
    verbs = chaos.add_subparsers(required=True)
    replay = verbs.add_parser("replay", help="seeded trace replay scored against the SLOs")
    _chaos_args(replay)
    replay.add_argument(
        "--faults", action="store_true",
        help="install the seeded fault battery during the replay",
    )
    replay.set_defaults(fn=_chaos_replay)
    battery = verbs.add_parser(
        "battery", help="the fault gate: every kind fires, none lost, all structured"
    )
    _chaos_args(battery)
    battery.add_argument(
        "--bundle-dir",
        default="/tmp/repro_chaos_bundles",
        help="flight-recorder bundles are dumped here on failure "
        "(printed as the CI artifact path)",
    )
    battery.add_argument(
        "--dump-bundle",
        action="store_true",
        help="dump a bundle even when the battery passes (feeds smoke "
        "pipelines that drive the postmortem CLI on every run)",
    )
    battery.set_defaults(fn=_chaos_battery)

    postmortem = sub.add_parser("postmortem", help="flight-recorder bundles (repro.recorder)")
    verbs = postmortem.add_subparsers(required=True)
    analyze = verbs.add_parser("analyze", help="attribute incidents and failures")
    analyze.add_argument("bundles", nargs="+", help="bundle dirs (or parents of)")
    analyze.add_argument("--json", action="store_true", help="print JSON, not the report")
    analyze.add_argument("--out", default=None, help="also write the report here")
    analyze.set_defaults(fn=_postmortem_analyze)
    timeline = verbs.add_parser("timeline", help="merged cross-shard event timeline")
    timeline.add_argument("bundles", nargs="+", help="bundle dirs (or parents of)")
    timeline.add_argument("--limit", type=int, default=None, help="last N events only")
    timeline.set_defaults(fn=_postmortem_timeline)
    diff = verbs.add_parser("diff", help="what changed between two bundles")
    diff.add_argument("a", help="the before bundle")
    diff.add_argument("b", help="the after bundle")
    diff.set_defaults(fn=_postmortem_diff)

    run = sub.add_parser(
        "run",
        help="run another command under observers: run --with OBS[,OBS...] [--] <command>",
        description="Run a repro command under observers and report each at exit, also "
        "after a failure. Observer options go before the command.",
    )
    run.add_argument("--with", dest="observers", required=True, type=_observer_names,
                     metavar="OBS[,OBS...]", help=f"observers: {', '.join(_OBSERVERS)}")
    run.add_argument("--trace-out", metavar="FILE", help="trace: Chrome JSON (default trace.json)")
    run.add_argument("--jsonl-out", metavar="FILE", help="trace: also write JSONL spans")
    run.add_argument("--no-summary", action="store_true", default=None,
                     help="trace: skip the span summary")
    run.add_argument("--slo-threshold-ms", type=float, metavar="MS",
                     help="slo: latency objective boundary (default 500)")
    run.add_argument("--slo-specs", metavar="FILE", help="slo: SLO spec JSON file")
    run.add_argument("--slo-events-out", metavar="FILE", help="slo: write the event log (JSONL)")
    run.add_argument("--fault-seed", type=int, metavar="N", help="chaos: plan seed (default 0)")
    run.add_argument("wrapped", nargs=argparse.REMAINDER, metavar="command",
                     help="the repro command to run, with its arguments")
    run.set_defaults(fn=lambda a: _cmd_run(a, run.error))

    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return args.fn(args) or 0


if __name__ == "__main__":
    sys.exit(main())
