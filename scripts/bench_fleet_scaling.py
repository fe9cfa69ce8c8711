#!/usr/bin/env python
"""Benchmark the fleet layer: shard scale-out, graceful drain, ring remap.

Drives ``repro.fleet.FleetService`` with the shared Poisson arrival
process over a key-diverse stencil workload and records:

* a sweep over shard count (1, 2, 4) at a fixed arrival rate, compute
  only. Every in-process shard runs under the same interpreter lock, so
  the sweep reports what extra shards buy and gates nothing. That
  shards can flush at the same time is checked by
  ``tests/fleet/test_fleet_service.py::TestScaling::
  test_shards_flush_concurrently``;
* a graceful scale-down under load: the drain must begin with requests
  in flight, and every request admitted before it must complete (zero
  lost in-flight requests);
* consistent-hash remap factors: adding/removing a shard must remap
  ~1/N of the key space (gated at ≤ 1.5/N), and removal must not move
  any key between surviving shards.

Writes ``BENCH_fleet_scaling.json`` (see ``--out``).

Usage: python scripts/bench_fleet_scaling.py [--out BENCH_fleet_scaling.json]
       [--quick] [--rate 2000] [--requests 256]
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from repro.workloads.arrivals import (
    keyed_requests,
    pace,
    poisson_offsets,
    stencil_pattern,
)

#: Remap-factor gate: moved fraction x shard count must stay under this.
REMAP_GATE = 1.5


def _fleet_config(num_shards: int, *, num_requests: int, max_batch_size: int,
                  backend: str):
    from repro.fleet import FleetConfig
    from repro.serve import ServeConfig

    return FleetConfig(
        serve=ServeConfig(
            max_batch_size=max_batch_size,
            max_wait_ms=5.0,
            max_pending=max(4 * num_requests, 64),
            num_workers=1,
            backend=backend,
        ),
        initial_replicas=num_shards,
        max_replicas=max(num_shards, 8),
        # many vnodes: per-shard ring arcs within a few % of 1/N, so the
        # busiest shard's key share — the scale-out ceiling — stays low
        virtual_nodes=256,
        max_pending=max(8 * num_requests, 256),
    )


def run_scaling_point(
    *,
    num_shards: int,
    arrival_rate: float,
    num_requests: int,
    num_keys: int,
    size: int,
    max_batch_size: int,
    seed: int,
    backend: str,
) -> dict:
    """One fleet lifecycle at ``num_shards``: paced submission, full drain."""
    from repro.fleet import FleetService

    config = _fleet_config(
        num_shards,
        num_requests=num_requests,
        max_batch_size=max_batch_size,
        backend=backend,
    )
    pattern = stencil_pattern(size)
    rng = np.random.default_rng(seed)
    requests = keyed_requests(
        pattern, rng, size, num_requests, num_keys,
        solver="cg", layout="grouped", tolerance=1e-5,
    )
    offsets = poisson_offsets(arrival_rate, num_requests, rng)

    with FleetService(config) as fleet:
        start = time.perf_counter()
        tickets = pace(offsets, lambda i: fleet.submit(requests[i]))
        fleet.flush()
        outcomes = [t.result(timeout=120.0) for t in tickets]
        makespan_s = time.perf_counter() - start
        stats = fleet.shard_stats()
        hdr = fleet.latency_histogram()
        per_shard_served = {row["shard"]: row["served"] for row in stats}
        busiest = max(per_shard_served.values())

    assert all(o.converged for o in outcomes), "fleet workload must converge"
    return {
        "shards": num_shards,
        "arrival_rate_rps": arrival_rate,
        "requests": num_requests,
        "distinct_keys": num_keys,
        "makespan_s": round(makespan_s, 4),
        "throughput_rps": round(num_requests / makespan_s, 1),
        "latency_p50_ms": round(hdr.percentile(50.0), 3),
        "latency_p99_ms": round(hdr.percentile(99.0), 3),
        "per_shard_served": per_shard_served,
        "busiest_shard_fraction": round(busiest / num_requests, 4),
    }


def run_drain_test(*, size: int, num_requests: int, seed: int, backend: str) -> dict:
    """Scale down under load; count every admitted request to completion."""
    from repro.fleet import FleetService

    config = _fleet_config(
        2,
        num_requests=num_requests,
        max_batch_size=4,
        backend=backend,
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
    parser.add_argument("--rate", type=float, default=2000.0, help="arrival rate (req/s)")
    parser.add_argument("--requests", type=int, default=256)
    parser.add_argument("--keys", type=int, default=64, help="distinct BatchKeys")
    parser.add_argument("--size", type=int, default=16, help="rows per system")
    parser.add_argument("--batch-size", type=int, default=4)
    parser.add_argument("--shard-counts", type=int, nargs="+", default=[1, 2, 4])
    parser.add_argument("--backend", choices=["sycl", "cuda", "cudasim", "wide"],
                        default="sycl")
    parser.add_argument("--quick", action="store_true", help="smaller workload")
    parser.add_argument("--seed", type=int, default=17)
    args = parser.parse_args(argv)

    if args.quick:
        args.requests = min(args.requests, 128)
        args.keys = min(args.keys, 32)

    sweep = []
    for num_shards in args.shard_counts:
        point = run_scaling_point(
            num_shards=num_shards,
            arrival_rate=args.rate,
            num_requests=args.requests,
            num_keys=args.keys,
            size=args.size,
            max_batch_size=args.batch_size,
            seed=args.seed,
            backend=args.backend,
        )
        sweep.append(point)
        print(
            f"shards={num_shards}: {point['throughput_rps']:8.1f} req/s, "
            f"p50 {point['latency_p50_ms']:7.2f} ms, "
            f"p99 {point['latency_p99_ms']:7.2f} ms, "
            f"busiest shard {point['busiest_shard_fraction']:.0%}"
        )

    one = next((p for p in sweep if p["shards"] == 1), None)
    four = next((p for p in sweep if p["shards"] == 4), None)
    scaling = None
    if one and four:
        scaling = {
            "throughput_1_shard_rps": one["throughput_rps"],
            "throughput_4_shard_rps": four["throughput_rps"],
            "speedup_4x": round(four["throughput_rps"] / one["throughput_rps"], 2),
        }
        print(
            f"\n4 shards vs 1: {scaling['speedup_4x']}x throughput "
            f"({one['throughput_rps']:.0f} -> {four['throughput_rps']:.0f} req/s)"
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
            "system_rows": args.size,
            "requests_per_point": args.requests,
            "distinct_keys": args.keys,
            "arrival_rate_rps": args.rate,
            "arrival": "poisson",
            "max_batch_size": args.batch_size,
            "solver": "cg",
            "preconditioner": "jacobi",
            "backend": args.backend,
        },
        metrics={
            "sweep": sweep,
            "scaling": scaling,
            "drain": drain,
            "ring": ring,
        },
    )
    out = write_bench(args.out, report)
    print(f"\nwrote {out}")

    # acceptance checks (return non-zero so CI can gate on them)
    failures = []
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
