#!/usr/bin/env python
"""Benchmark the fleet layer: fault isolation, graceful drain, ring remap.

Drives ``repro.fleet.FleetService`` and records:

* an isolation A/B, what a fleet buys over one service. A healthy batch
  key (24-row SPD tridiagonal systems, CG + Jacobi, Poisson at 100 req/s)
  shares the service with a sick one (32-row tridiagonal systems with
  diagonal 0.3 and a +-1 % nonsymmetric perturbation, CG + Jacobi at
  tolerance 1e-10 and 200 iterations, which never converge; 25 req/s),
  so every sick request takes the direct-LU fallback until a breaker
  opens. One ``SolverService`` with two workers serves the same traffic
  as a fleet of two one-worker shards whose ring puts the keys on
  different shards, in interleaved pairs with the run order alternating.
  Each mode reports the medians and quartiles over its runs of the
  healthy key's p50, p90 and p99 (from each ``request.solved`` event's
  ``latency_ms``), the healthy failures and the sick fallbacks and sheds;
  ``fleet_p99_wins`` counts the pairs in which the fleet's healthy p99
  is lower. ``tests/fleet/test_isolation.py`` pins the two mechanisms
  behind the number (a breaker and workers per shard) deterministically;
* a graceful scale-down under load: the drain must begin with requests
  in flight, and every request admitted before it must complete (zero
  lost in-flight requests);
* consistent-hash remap factors: adding/removing a shard must remap
  ~1/N of the key space (gated at ≤ 1.5/N), and removal must not move
  any key between surviving shards.

Writes ``BENCH_fleet_scaling.json`` (see ``--out``). Exits 1 when a
healthy request fails in either mode, when the fleet's median healthy
p99 is not below one service's lower quartile (its median with
``--quick``), or when the drain or the ring checks fail.

Usage: python scripts/bench_fleet_scaling.py [--out BENCH_fleet_scaling.json]
       [--quick] [--seed 17] [--size 16] [--backend sycl]
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np
import scipy.sparse as sp

from repro.workloads.arrivals import (
    keyed_requests,
    make_request,
    pace,
    poisson_offsets,
    stencil_pattern,
)

#: Remap-factor gate: moved fraction x shard count must stay under this.
REMAP_GATE = 1.5

#: Isolation A/B: interleaved pairs and seconds per run (``--quick``: 2 of 3 s).
ISOLATION_PAIRS, ISOLATION_RUN_S = 10, 8.0
QUICK_PAIRS, QUICK_RUN_S = 2, 3.0
HEALTHY_ROWS, HEALTHY_RPS = 24, 100.0
SICK_ROWS, SICK_RPS = 32, 25.0
MODES = ("one_service", "fleet")


def _sick_request(rng):
    """A system Jacobi CG never solves to 1e-10 in 200 iterations."""
    from repro.serve import SolveRequest

    n = SICK_ROWS
    lower = -1.0 - 0.01 * rng.uniform(-1.0, 1.0, n - 1)
    upper = -1.0 - 0.01 * rng.uniform(-1.0, 1.0, n - 1)
    matrix = sp.diags([lower, np.full(n, 0.3), upper], [-1, 0, 1], format="csr")
    return SolveRequest(
        matrix, rng.standard_normal(n), solver="cg", preconditioner="jacobi",
        tolerance=1e-10, max_iterations=200,
    )


def _healthy_iterations() -> int:
    """The healthy key's ``max_iterations``: the first from 500 that a
    two-shard fleet's ring routes away from the sick key."""
    from repro.fleet import FleetConfig, HashRing

    ring = HashRing(FleetConfig().virtual_nodes)
    ring.add("shard-0")
    ring.add("shard-1")
    rng = np.random.default_rng(0)
    pattern = stencil_pattern(HEALTHY_ROWS)
    sick_owner = ring.node_for(_sick_request(rng).batch_key)
    return next(
        iters
        for iters in range(500, 564)
        if ring.node_for(
            make_request(pattern, rng, HEALTHY_ROWS, "cg", max_iterations=iters).batch_key
        )
        != sick_owner
    )


def isolation_traffic(seed: int, run_s: float, healthy_iterations: int):
    """One run's arrivals: (offsets, requests, healthy flags), time-ordered."""
    rng = np.random.default_rng(seed)
    arrivals = sorted(
        [(t, True) for t in poisson_offsets(HEALTHY_RPS, int(HEALTHY_RPS * run_s), rng)]
        + [(t, False) for t in poisson_offsets(SICK_RPS, int(SICK_RPS * run_s), rng)]
    )
    pattern = stencil_pattern(HEALTHY_ROWS)
    requests = [
        make_request(pattern, rng, HEALTHY_ROWS, "cg", max_iterations=healthy_iterations)
        if healthy
        else _sick_request(rng)
        for _, healthy in arrivals
    ]
    return [t for t, _ in arrivals], requests, [healthy for _, healthy in arrivals]


def run_isolation_mode(mode: str, traffic, backend: str) -> dict:
    """Serve one run's traffic with ``mode``; the healthy key's latencies
    and failures, the sick key's fallbacks and sheds."""
    from repro.exceptions import CircuitOpenError
    from repro.fleet import FleetConfig, FleetService
    from repro.instruments import use
    from repro.serve import ServeConfig, SolverService
    from repro.telemetry.events import REQUEST_SOLVED, EventLog

    offsets, requests, healthy = traffic
    events = EventLog(capacity=8 * len(requests))  # keeps every event
    with use(events=events):
        if mode == "fleet":
            service = FleetService(
                FleetConfig(serve=ServeConfig(num_workers=1, backend=backend),
                            initial_replicas=2)
            )
            owners = {service.ring.node_for(r.batch_key) for r in requests}
            assert len(owners) == 2, "the ring must put the two keys on two shards"
        else:
            service = SolverService(ServeConfig(num_workers=2, backend=backend))
    with service:
        tickets = pace(offsets, lambda i: service.submit(requests[i]))
        errors = [ticket.exception(timeout=120.0) for ticket in tickets]
    healthy_ids = {r.request_id for r, h in zip(requests, healthy) if h}
    latencies = [
        ev.fields["latency_ms"]
        for ev in events.events()
        if ev.type == REQUEST_SOLVED and ev.request_id in healthy_ids
    ]
    p50, p90, p99 = np.percentile(latencies, [50, 90, 99])
    sick = [(t, e) for t, e, h in zip(tickets, errors, healthy) if not h]
    return {
        "healthy_p50_ms": round(float(p50), 3),
        "healthy_p90_ms": round(float(p90), 3),
        "healthy_p99_ms": round(float(p99), 3),
        "healthy_requests": len(healthy_ids),
        "healthy_failed": sum(1 for e, h in zip(errors, healthy) if h and e is not None),
        "sick_fallbacks": sum(1 for t, e in sick if e is None and t.result().used_fallback),
        "sick_shed": sum(1 for _, e in sick if isinstance(e, CircuitOpenError)),
    }


def _quartiles(values) -> dict:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": round(float(median), 3), "q1": round(float(q1), 3),
            "q3": round(float(q3), 3)}


def run_isolation_ab(*, pairs: int, run_s: float, seed: int, backend: str) -> dict:
    """Interleaved pairs of both modes on the same traffic, order alternating."""
    healthy_iterations = _healthy_iterations()
    runs: dict[str, list[dict]] = {mode: [] for mode in MODES}
    for k in range(pairs):
        order = MODES if k % 2 == 0 else MODES[::-1]
        for mode in order:
            traffic = isolation_traffic(seed + k, run_s, healthy_iterations)
            runs[mode].append(run_isolation_mode(mode, traffic, backend))
        print(
            f"isolation pair {k + 1}/{pairs} (seed {seed + k}): healthy p99 "
            f"one service {runs['one_service'][-1]['healthy_p99_ms']:.2f} ms, "
            f"fleet {runs['fleet'][-1]['healthy_p99_ms']:.2f} ms"
        )
    summary = {
        "offered": {
            "pairs": pairs,
            "run_s": run_s,
            "seeds": [seed + k for k in range(pairs)],
            "healthy": {"rows": HEALTHY_ROWS, "rate_rps": HEALTHY_RPS, "solver": "cg",
                        "preconditioner": "jacobi", "tolerance": 1e-8,
                        "max_iterations": healthy_iterations},
            "sick": {"rows": SICK_ROWS, "rate_rps": SICK_RPS, "solver": "cg",
                     "preconditioner": "jacobi", "tolerance": 1e-10,
                     "max_iterations": 200},
            "one_service": "one SolverService, 2 workers",
            "fleet": "FleetService, 2 shards of 1 worker",
        },
    }
    for mode in MODES:
        summary[mode] = {
            **{
                name: _quartiles([run[name] for run in runs[mode]])
                for name in ("healthy_p50_ms", "healthy_p90_ms", "healthy_p99_ms")
            },
            **{
                name: sum(run[name] for run in runs[mode])
                for name in ("healthy_requests", "healthy_failed", "sick_fallbacks",
                             "sick_shed")
            },
            "runs": runs[mode],
        }
    summary["fleet_p99_wins"] = sum(
        fleet["healthy_p99_ms"] < one["healthy_p99_ms"]
        for fleet, one in zip(runs["fleet"], runs["one_service"])
    )
    return summary


def run_drain_test(*, size: int, num_requests: int, seed: int, backend: str) -> dict:
    """Scale down under load; count every admitted request to completion."""
    from repro.fleet import FleetConfig, FleetService
    from repro.serve import ServeConfig

    config = FleetConfig(
        serve=ServeConfig(
            max_batch_size=4,
            max_wait_ms=5.0,
            max_pending=max(4 * num_requests, 64),
            num_workers=1,
            backend=backend,
        ),
        initial_replicas=2,
        virtual_nodes=256,
        max_pending=max(8 * num_requests, 256),
    )
    pattern = stencil_pattern(size)
    rng = np.random.default_rng(seed)
    requests = keyed_requests(pattern, rng, size, num_requests, 32, solver="cg")

    with FleetService(config) as fleet:
        tickets = [fleet.submit(r) for r in requests]
        fleet.flush()
        in_flight = fleet.pending
        drained = fleet.scale_down(1)  # graceful: ring-off, flush, wait, close
        lost = 0
        for ticket in tickets:
            try:
                outcome = ticket.result(timeout=60.0)
                if not outcome.converged:
                    lost += 1
            except Exception:
                lost += 1
        rebalances = sum(
            1 for ev in fleet.events.events() if ev.type == "fleet.rebalance"
        )

    return {
        "requests": num_requests,
        "in_flight_at_drain": in_flight,
        "drained_shards": drained,
        "lost_requests": lost,
        "rebalance_events": rebalances,
        "replicas_after": 1,
    }


def run_ring_remap(*, num_keys: int, num_shards: int, virtual_nodes: int) -> dict:
    """Measure the key-space fraction remapped by one membership change."""
    from repro.fleet import HashRing

    keys = [f"batchkey-{i}" for i in range(num_keys)]
    ring = HashRing(virtual_nodes)
    for i in range(num_shards):
        ring.add(f"shard-{i}")
    before = ring.assignments(keys)

    # add one shard: ~1/(N+1) of keys should move, all of them to the newcomer
    ring.add(f"shard-{num_shards}")
    after_add = ring.assignments(keys)
    moved_add = [k for k in before if before[k] != after_add[k]]
    stray_add = [k for k in moved_add if after_add[k] != f"shard-{num_shards}"]
    add_fraction = len(moved_add) / num_keys

    # remove it again: exactly its keys move back, none between survivors
    ring.remove(f"shard-{num_shards}")
    after_remove = ring.assignments(keys)
    moved_remove = [k for k in after_add if after_add[k] != after_remove[k]]
    collateral = [k for k in moved_remove if after_add[k] != f"shard-{num_shards}"]
    remove_fraction = len(moved_remove) / num_keys

    occupancy = ring.occupancy()
    return {
        "keys": num_keys,
        "shards": num_shards,
        "virtual_nodes": virtual_nodes,
        "add_moved_fraction": round(add_fraction, 4),
        "add_remap_x_n": round(add_fraction * (num_shards + 1), 3),
        "add_stray_keys": len(stray_add),
        "remove_moved_fraction": round(remove_fraction, 4),
        "remove_remap_x_n": round(remove_fraction * (num_shards + 1), 3),
        "remove_collateral_keys": len(collateral),
        "occupancy_min": round(min(occupancy.values()), 4),
        "occupancy_max": round(max(occupancy.values()), 4),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="BENCH_fleet_scaling.json")
    parser.add_argument("--size", type=int, default=16, help="rows per drain system")
    parser.add_argument("--backend", choices=["sycl", "cuda", "cudasim", "wide"],
                        default="sycl")
    parser.add_argument("--quick", action="store_true",
                        help=f"{QUICK_PAIRS} isolation pairs of {QUICK_RUN_S:g} s")
    parser.add_argument("--seed", type=int, default=17)
    args = parser.parse_args(argv)

    isolation = run_isolation_ab(
        pairs=QUICK_PAIRS if args.quick else ISOLATION_PAIRS,
        run_s=QUICK_RUN_S if args.quick else ISOLATION_RUN_S,
        seed=args.seed,
        backend=args.backend,
    )
    one, fleet = isolation["one_service"], isolation["fleet"]
    print(
        f"\nisolation: healthy p99 median (IQR) one service "
        f"{one['healthy_p99_ms']['median']:.2f} ({one['healthy_p99_ms']['q1']:.2f}-"
        f"{one['healthy_p99_ms']['q3']:.2f}) ms, fleet "
        f"{fleet['healthy_p99_ms']['median']:.2f} ({fleet['healthy_p99_ms']['q1']:.2f}-"
        f"{fleet['healthy_p99_ms']['q3']:.2f}) ms; fleet won "
        f"{isolation['fleet_p99_wins']} of {len(fleet['runs'])} pairs; sick fallbacks/"
        f"sheds one service {one['sick_fallbacks']}/{one['sick_shed']}, fleet "
        f"{fleet['sick_fallbacks']}/{fleet['sick_shed']}"
    )

    drain = run_drain_test(
        size=args.size,
        num_requests=64 if not args.quick else 32,
        seed=args.seed + 3,
        backend=args.backend,
    )
    print(
        f"drain: {drain['in_flight_at_drain']} in flight at scale-down, "
        f"lost {drain['lost_requests']}, "
        f"{drain['rebalance_events']} rebalance events"
    )

    ring = run_ring_remap(num_keys=4096, num_shards=4, virtual_nodes=64)
    print(
        f"ring: add remap {ring['add_moved_fraction']:.1%} of keys "
        f"({ring['add_remap_x_n']}/N), remove remap "
        f"{ring['remove_moved_fraction']:.1%} ({ring['remove_remap_x_n']}/N), "
        f"collateral {ring['remove_collateral_keys']}"
    )

    from repro.bench.schema import bench_payload, write_bench

    report = bench_payload(
        "fleet_scaling",
        workload={
            "isolation": "healthy + sick batch key, one service vs two shards "
                         "(metrics.isolation.offered)",
            "drain_system_rows": args.size,
            "drain_max_batch_size": 4,
            "solver": "cg",
            "preconditioner": "jacobi",
            "backend": args.backend,
            "quick": args.quick,
        },
        metrics={
            "isolation": isolation,
            "drain": drain,
            "ring": ring,
        },
    )
    out = write_bench(args.out, report)
    print(f"\nwrote {out}")

    # acceptance checks (return non-zero so CI can gate on them)
    failures = []
    for mode in MODES:
        if isolation[mode]["healthy_failed"]:
            failures.append(
                f"{isolation[mode]['healthy_failed']} healthy requests failed ({mode})"
            )
    bar = "median" if args.quick else "q1"
    if not fleet["healthy_p99_ms"]["median"] < one["healthy_p99_ms"][bar]:
        failures.append(
            f"the fleet's median healthy p99 is not below one service's {bar}"
        )
    if drain["in_flight_at_drain"] == 0:
        failures.append("no request was in flight at the drain")
    if drain["lost_requests"] != 0:
        failures.append(f"drain lost {drain['lost_requests']} in-flight requests")
    if ring["add_remap_x_n"] > REMAP_GATE or ring["remove_remap_x_n"] > REMAP_GATE:
        failures.append("consistent-hash remap factor above 1.5/N")
    if ring["add_stray_keys"] or ring["remove_collateral_keys"]:
        failures.append("membership change moved keys between uninvolved shards")
    for failure in failures:
        print(f"bench_fleet_scaling: FAIL — {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
