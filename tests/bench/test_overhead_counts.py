"""Exact results of the overhead scripts' workloads, on fresh runs.

``scripts/bench_sanitize_overhead.py`` and ``scripts/bench_profile_overhead.py``
time one fused-CG solve (3-point stencil, n=16, nb=4, tol 1e-9) on the
faithful sycl queue and record what the instrument counted per solve.
Those counts are deterministic; this pins them against the same numbers
the baseline manifest gates, on a fresh run of the workload rather than
on the committed artifacts. ``scripts/bench_recorder_overhead.py``'s
attribution workload (the seeded chaos battery, through a recorder
bundle and the postmortem analyzer) is pinned the same way.
"""

from repro.chaos import ChaosInjector, FaultPlan
from repro.chaos.replay import build_trace, run_replay
from repro.instruments import use
from repro.kernels import run_batch_cg_on_device
from repro.profile import Profiler
from repro.recorder import FlightRecorder, analyze_bundles, load_bundles
from repro.sanitize import Sanitizer
from repro.serve import ServeConfig, SolverService
from repro.sycl.device import pvc_stack_device
from repro.sycl.queue import Queue
from repro.workloads.stencil import stencil_rhs, three_point_stencil

NUM_ROWS, NUM_BATCH = 16, 4


def _solve_once():
    device = pvc_stack_device(1)
    matrix = three_point_stencil(NUM_ROWS, NUM_BATCH)
    rhs = stencil_rhs(NUM_ROWS, NUM_BATCH)
    run_batch_cg_on_device(device, matrix, rhs, tolerance=1e-9, queue=Queue(device))


def test_sanitizer_checks_per_solve():
    sanitizer = Sanitizer()
    with use(sanitizer=sanitizer):
        _solve_once()
    summary = sanitizer.summary()
    assert summary["slm_accesses"] == 22_080
    assert summary["syncs"] == 460
    assert summary["violations"] == {}


def test_profiler_counts_per_solve():
    profiler = Profiler()
    with use(profiler=profiler):
        _solve_once()
    total = profiler.totals()
    assert total.flops == 19_776
    assert total.global_bytes == 55_328
    assert total.slm_bytes == 176_640


def test_chaos_battery_postmortem_attributes_every_fault(tmp_path):
    # the recorder script's attribution workload, under a recorder whose
    # rings never wrap, so every injected fault stays in the bundle
    chaos = ChaosInjector(FaultPlan.battery(seed=0))
    items = build_trace(seed=0, num_requests=96, rate_rps=400.0)
    config = ServeConfig(max_batch_size=8, max_wait_ms=2.0, num_workers=2)
    recorder = FlightRecorder(capacity=8192, shard="bench-attr")
    with use(recorder=recorder):
        report = run_replay(
            items,
            lambda: SolverService(config, chaos=chaos),
            seed=0,
            result_timeout_s=60.0,
        )
    bundle = recorder.dump(tmp_path, reason="chaos_fault")
    analysis = analyze_bundles(load_bundles([bundle]))

    triggers = [
        t for t in recorder.snapshot()["triggers"] if t["reason"] == "chaos_fault"
    ]
    assert triggers
    infra = [i for i in analysis["incidents"] if i["source"] == "infrastructure"]
    for trigger in triggers:
        assert any(
            incident["fault_class"] == trigger["kind"]
            and incident["flush_id"] == trigger["flush_id"]
            and set(trigger["trace_ids"]) <= set(incident["trace_ids"])
            for incident in infra
        ), trigger
    assert report.lost == 0
    assert analysis["attribution_counts"]["unattributed"] == 0
