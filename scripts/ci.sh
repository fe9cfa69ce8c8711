#!/usr/bin/env bash
# CI gate: tier-1 tests, lint, the smoke checks, and the perf-regression
# gate over the committed BENCH_*.json artifacts.
#
# Mirrors what must hold before a change lands: the full test suite
# green (tests/bench/test_paper_artifacts.py among it: the committed
# paper tables and figures in results/ regenerate byte for byte; and
# tests/serve/test_service.py::TestPerFlushAccounting::
# test_a_full_size_flush_writes_each_kind_once, which guards the serving
# layer's per-flush accounting by count, not by time), the
# lint gate clean, the tracing pipeline producing valid Chrome
# traces through `repro run --with trace` (whose observer options never
# reach the wrapped command), the serving layer honouring its contracts,
# the fused kernels sanitizer-clean and agreeing with the reference at
# every launch geometry other than the heuristic's (a work-group smaller
# than the system included), the profiler attributing counters on both
# backends with green model drift, the one fused-kernel dispatch
# agreeing with the reference on all three backends (the CUDA reduction
# path included), the CUDA-spelled kernel tour running, the committed
# benchmark artifacts within
# tolerance of the baseline manifest, and the repo benchmark's own
# checks passing. Every
# stage is a hard gate: set -e aborts the script (and fails CI) on the
# first non-zero exit — no warn-and-continue stages.
#
# Usage: scripts/ci.sh
set -euo pipefail

cd "$(dirname "$0")/.."
export PYTHONPATH="${PWD}/src${PYTHONPATH:+:${PYTHONPATH}}"

echo "== tier-1 tests =="
python -m pytest -x -q

echo
echo "== lint =="
bash scripts/lint.sh

echo
echo "== trace smoke =="
python scripts/smoke_trace.py --out /tmp/ci_trace_smoke.json
# run's --trace-out (before the command) and chaos replay's own
# --trace-out (after it) must each write their file
rm -f /tmp/ci_run_trace.json /tmp/ci_replay_items.jsonl
python -m repro run --with trace --trace-out /tmp/ci_run_trace.json --no-summary \
    -- chaos replay --requests 8 --size 8 --trace-out /tmp/ci_replay_items.jsonl
test -s /tmp/ci_run_trace.json
test -s /tmp/ci_replay_items.jsonl

echo
echo "== serve smoke =="
python scripts/smoke_serve.py

echo
echo "== fleet smoke =="
python scripts/smoke_fleet.py

echo
echo "== geometry diff =="
# at 24 rows the differential grid's geometry axis runs every fused
# kernel at each (sub-group, work-group) pair the Sec. 3.6 heuristic does
# not pick, including a work-group smaller than the system
python -m repro sanitize diff --backends sycl,wide --rows 24

echo
echo "== profile smoke =="
python scripts/smoke_profile.py --out /tmp/ci_profile_smoke.folded

echo
echo "== slo check =="
# clean workload: every objective healthy, exit 0
python -m repro slo check --requests 16 --epochs 3 --size 8
# seeded latency regression: the burn-rate alert must page (non-zero exit)
if python -m repro slo check --requests 16 --epochs 3 --size 8 \
    --inject-latency-ms 5000 --inject-fraction 0.4 >/dev/null 2>&1; then
    echo "slo check: seeded latency regression was NOT detected" >&2
    exit 1
fi
echo "slo check: seeded regression detected (non-zero exit) — OK"

echo
echo "== telemetry smoke =="
# one dashboard frame renders, and the overhead bench holds its
# (quick-mode) disabled-path bound
python -m repro top --frames 1 --interval 0.05 --requests 12 --size 8 >/dev/null
python scripts/bench_telemetry_overhead.py --quick \
    --out /tmp/ci_telemetry_overhead.json >/dev/null

echo
echo "== wide-diff =="
# every backend of the one fused-kernel dispatch (faithful sycl, the
# CUDA warp-shuffle reduction, lockstep wide) vs the NumPy reference
# across the differential grid, then the quick-mode speedup bench (same
# >= 20x hot-path gate as the committed BENCH_wide_speedup.json artifact)
python -m repro sanitize diff --backends sycl,cuda,wide
python scripts/bench_wide_speedup.py --quick --out /tmp/ci_wide_speedup.json

echo
echo "== kernel tour =="
# the only caller of Stream.launch_kernel outside tests/cudasim
python examples/sycl_kernel_tour.py >/dev/null

echo
echo "== chaos-gate =="
# seeded fault battery: every fault kind fires, zero lost tickets, every
# failure structured — then the replay SLO bench in quick mode, checked
# against the committed baseline manifest
python -m repro chaos battery --requests 40 --batch-size 4 --size 12
python -m repro chaos battery --requests 40 --batch-size 4 --size 12 --shards 2
python scripts/bench_chaos_slo.py --quick --out /tmp/ci_chaos_slo.json

echo
echo "== recorder smoke =="
# flight recorder end to end: the quick-mode overhead/attribution bench,
# then a live bundle driven through every postmortem verb
python scripts/bench_recorder_overhead.py --quick \
    --out /tmp/ci_recorder_overhead.json >/dev/null
rm -rf /tmp/ci_recorder_bundles
python -m repro chaos battery --requests 40 --batch-size 4 --size 12 \
    --bundle-dir /tmp/ci_recorder_bundles --dump-bundle
python -m repro postmortem analyze /tmp/ci_recorder_bundles >/dev/null
python -m repro postmortem timeline /tmp/ci_recorder_bundles --limit 5 >/dev/null

echo
echo "== coverage floor =="
# tier1 (serve/fleet/chaos/telemetry/recorder) under the stdlib line
# tracer: >= 85% of src/repro/serve + src/repro/fleet executable lines,
# >= 80% of src/repro/observability + telemetry + recorder
python scripts/coverage_gate.py --floor 85 --obs-floor 80

echo
echo "== perf-regression gate =="
python scripts/check_regression.py

echo
echo "== perf self-check =="
# the repo benchmark's own checks: its traced probes wrap src/ layer
# boundaries by name (SpMV is BatchCsr.apply), and the per-layer shares
# they measure must add up to 1
python -m pytest perf/tests -q

echo
echo "== sanitize =="
python -m repro sanitize selftest
# fast checked subset: detector/shadow units plus every kernel test
# re-run under a suite-wide sanitizer (SANITIZE=1)
SANITIZE=1 python -m pytest -q \
    tests/sanitize/test_detectors.py \
    tests/sanitize/test_shadow.py \
    tests/sanitize/test_sanitize_cli.py \
    tests/kernels

echo
echo "ci: OK"
