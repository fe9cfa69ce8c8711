"""Checks of the benchmark itself, on ``--quick`` runs of a few seconds.

    python -m pytest perf/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

PERF = Path(__file__).resolve().parent.parent
ROOT = PERF.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SERVING = ("serve_keys_open", "serve_newton_warm", "serve_kernel_wide")

# Per-layer metrics of layers that only some workloads' traffic reaches,
# with those workloads; BENCHMARK.json lists the ones every workload reaches.
LAYER_ONLY = {
    SERVING: [
        "serve.submit_us_p50", "serve.request_build_us_p50", "serve.queue_wait_ms_p50",
        "serve.batch_size_mean", "serve.flush_ms_p50", "serve.assembly_ms_p50",
        "serve.plan_ms_p50", "serve.solve_ms_p50", "serve.scatter_ms_p50",
        "serve.flush_self_ms_p50", "serve.plan_hit_rate", "serve.fallback_frac",
        "serve.kernel_path_frac", "instr.events_per_request",
        "instr.metric_writes_per_request", "instr.us_per_request",
    ],
    ("serve_kernel_wide",): [
        "wide.kernel_ms_p50", "wide.us_per_iter", "wide.first_call_ms", "wide.iter_delta_max",
    ],
    ("serve_keys_open",): ["loadgen.lag_p99_ms"],
}
PATH_METRICS = [f"path.{path}_ms.n{n}_b{b}" for path in ("vectorized", "wide")
                for n in (32, 256) for b in (4, 64)]


def _run(tmp_path: Path, name: str, *flags: str) -> dict:
    out = tmp_path / f"{name}.json"
    proc = subprocess.run(
        [sys.executable, str(PERF / "run.py"), "--quick", "--out", str(out), *flags],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
    return json.loads(out.read_text())["results"]


@pytest.fixture(scope="module")
def untraced(tmp_path_factory):
    return _run(tmp_path_factory.mktemp("untraced"), "run")


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    return _run(tmp_path_factory.mktemp("traced"), "run", "--traced")


def test_every_end_to_end_metric_is_emitted_with_its_unit(untraced):
    assert set(untraced) == set(WORKLOADS)
    for workload, result in untraced.items():
        metrics = result["metrics"]
        assert set(metrics) == {m["name"] for m in SPEC["end_to_end"]}, workload
        for m in SPEC["end_to_end"]:
            value, unit = metrics[m["name"]]
            assert unit == m["unit"] and value > 0, (workload, m["name"])
            if m["name"] != "peak_rss_mb":  # every timing is printed as measured, too
                assert result["extra"][m["name"] + ".raw"][1] == unit, (workload, m["name"])
        for name in ("latency_samples", "blocks", "gauge.samples", "gauge.factor_median"):
            assert result["extra"][name][0] > 0, (workload, name)
        assert result["fail_frac"] == 0.0


def test_every_per_layer_metric_is_emitted_on_its_workloads(traced):
    assert set(traced) == {*WORKLOADS, "path_matrix"}
    for workload in WORKLOADS:
        metrics, extra = traced[workload]["metrics"], traced[workload]["extra"]
        assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}, workload
        for m in SPEC["per_layer"]:
            assert metrics[m["name"]][1] == m["unit"], (workload, m["name"])
        for reached_by, names in LAYER_ONLY.items():
            for name in names:
                assert (name in extra) == (workload in reached_by), (workload, name)
    paths = traced["path_matrix"]
    assert set(paths["extra"]) == set(PATH_METRICS)
    assert all(value > 0 and unit == "ms" for value, unit in paths["extra"].values())


def test_driver_command_prints_exactly_the_listed_metrics(tmp_path):
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        proc = subprocess.run(
            [sys.executable, "perf/run.py", "--workload", "batch_pele", "--seed", "2",
             "--seconds", "1", "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        assert {k: v["unit"] for k, v in last["metrics"].items()} == {
            m["name"]: m["unit"] for m in SPEC[kind]
        }


def test_stage_self_times_add_up_to_the_flush(traced):
    for workload in SERVING:
        extra = traced[workload]["extra"]
        total = extra["flush_total_ms"][0]
        stages = extra["stage_self_total_ms"][0]
        assert total > 0 and abs(stages - total) <= 0.05 * total, workload


def test_core_shares_add_up_to_one(traced):
    parts = ("spmv", "precond", "blas1", "reduce", "control")
    for workload in WORKLOADS:
        shares = [traced[workload]["metrics"][f"core.{p}_share"][0] for p in parts]
        assert abs(sum(shares) - 1.0) <= 0.02, workload
        assert min(shares) >= -0.02, (workload, shares)


def test_same_seed_gives_same_inputs_and_iterations(untraced, tmp_path):
    again = _run(tmp_path, "again", "--workload", "serve_keys_open", "--workload", "batch_pele")
    for workload, result in again.items():
        assert result["fingerprint"] == untraced[workload]["fingerprint"], workload
        assert result["iters_head"] == untraced[workload]["iters_head"], workload


def test_other_seed_gives_other_inputs(untraced, tmp_path):
    other = _run(tmp_path, "other", "--workload", "batch_pele", "--seed", "2")
    assert other["batch_pele"]["fingerprint"] != untraced["batch_pele"]["fingerprint"]


def test_corrupted_answer_counts_as_failed(monkeypatch):
    import scenarios
    from repro.serve.request import SolveTicket

    result = SolveTicket.result

    def corrupted(ticket, timeout=None):
        out = result(ticket, timeout)
        return dataclasses.replace(out, x=out.x * 1.001)

    workload = scenarios.ServeKeysOpen(seed=1)
    workload.open_service()
    try:
        monkeypatch.setattr(SolveTicket, "result", corrupted)
        tally = scenarios.Tally()
        workload.run(0.5, tally)
    finally:
        monkeypatch.undo()
        workload.close()
    assert tally.attempted > 0
    assert tally.failed == tally.attempted
    assert tally.reasons == {"wrong_answer": tally.attempted}


def test_open_loop_throughput_is_completions_over_cpu_time():
    import scenarios
    from loadgen import Record

    ms = 10**6
    workload = scenarios.ServeKeysOpen(seed=1)
    workload.BLOCK_INTERVALS = 2
    # probes at 0, 10, 20, 30 and 40 ms, 1 ms long; the process spends 2 ms
    # of CPU time between two of them
    workload.gauge._probes = [(10 * k * ms, (10 * k + 1) * ms, 3 * k * ms, (3 * k + 1) * ms)
                              for k in range(5)]
    records = [Record(key=i, due_ns=0, done_ns=t * ms, outcome=object())
               for i, t in enumerate((5, 15, 16, 35))]
    records.append(Record(key=4, due_ns=0, done_ns=25 * ms))  # failed: not a solve
    blocks = workload.cpu_blocks(records)
    assert [solved for solved, _parts in blocks] == [3, 1]
    samples = scenarios.Samples(workload.gauge, blocks=blocks)
    # 3 and 1 solves in 4 ms of CPU time each: 750 and 250 per second
    assert samples.end_to_end(raw=True)["solves_per_s"][0] == pytest.approx(500.0)


def test_the_busy_part_of_a_timing_is_divided_by_the_gauge_factor_around_it():
    import scenarios
    from gauge import Gauge, at_nominal

    gauge = Gauge()
    gauge._times, gauge.factors, gauge._steal = [100, 200, 300], [1.0, 2.0, 4.0], [0.0] * 3
    assert gauge.factor_at(50) == 1.0  # before the first sample
    assert gauge.factor_at(150) == 1.5  # between two samples: their mean
    assert gauge.factor_at(250) == 3.0
    assert gauge.factor_at(400) == 4.0  # after the last
    # 3 s of which the CPU was busy for 2 s, on a CPU twice as slow as nominal
    assert at_nominal(3.0, 2.0, 2.0) == 2.0
    assert at_nominal(3.0, 5.0, 2.0) == 1.5  # busy time is clamped to the timing
    samples = scenarios.Samples(
        gauge, blocks=[(10, [(150, 1.0, 1.0)]), (10, [(150, 0.75, 0.75), (250, 1.5, 1.5)])]
    )
    samples.add_latencies([150, 250, 250], [3.0, 6.0, 9.0], [3.0, 6.0, 0.0])
    scaled, raw = samples.end_to_end(), samples.end_to_end(raw=True)
    assert scaled["latency_p50_ms"][0] == 2.0 and raw["latency_p50_ms"][0] == 6.0
    # the idle 9 ms latency stays 9 ms: p90 interpolates between 2 and 9
    assert scaled["latency_p90_ms"][0] == pytest.approx(2.0 + 0.8 * 7.0)
    # block rates 15 and 10 systems/s once scaled, 10 and 40/9 as measured; the median of two
    assert scaled["solves_per_s"][0] == pytest.approx(12.5)
    assert raw["solves_per_s"][0] == pytest.approx(65 / 9)


def test_timings_the_host_disturbed_are_left_out():
    import scenarios
    from gauge import Gauge

    second = 10**9
    gauge = Gauge()
    gauge._times, gauge.factors = [0, second, 2 * second, 3 * second], [1.0] * 4
    gauge._steal = [0.0, 0.0, 0.5, 0.5]  # the host took half a CPU in the second interval
    at = [second // 2, 3 * second // 2, 5 * second // 2]
    assert gauge.calm_at(at).tolist() == [True, False, True]
    samples = scenarios.Samples(gauge, blocks=[(10, [(t, 1.0, 1.0)]) for t in at])
    samples.add_latencies(at, [1.0, 100.0, 3.0], [1.0, 100.0, 3.0])
    assert samples.end_to_end()["latency_p90_ms"][0] == pytest.approx(2.8)
    assert samples.end_to_end(raw=True)["latency_p90_ms"][0] > 3.0
    assert samples.diagnostics()["latency_samples_left_out"][0] == 1
    assert samples.diagnostics()["blocks_left_out"][0] == 1
    gauge._steal = [0.0, 0.5, 1.0, 1.5]  # disturbed throughout: every timing counts
    assert samples.end_to_end()["latency_p90_ms"][0] > 3.0


def test_a_solve_is_divided_by_the_factor_of_its_own_check():
    from gauge import CheckGauge

    gauge = CheckGauge()
    gauge._times, gauge.factors = [100, 200, 300], [1.0, 2.0, 4.0]
    assert gauge.factor_at(50) == 1.0
    assert gauge.factor_at(150) == 2.0  # the sample right after, alone
    assert gauge.factor_at(400) == 4.0


def test_missing_source_tree_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(PERF, tmp_path / "perf", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perf/run.py", "--workload", WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_compare_verdicts():
    import compare

    base = [100.0, 101.0, 99.0, 100.5, 99.5]
    pairs = lambda a, b: list(zip(a, b))  # noqa: E731
    faster = [v * 0.8 for v in base]
    slower = [v * 1.2 for v in base]
    noisy = [60.0, 140.0, 100.0, 70.0, 130.0]
    assert compare.verdict(base, faster, pairs(base, faster), "lower", 0.1) == "improved"
    assert compare.verdict(base, slower, pairs(base, slower), "lower", 0.1) == "regressed"
    assert compare.verdict(base, base[::-1], pairs(base, base[::-1]), "lower", 0.1) == "no change"
    assert compare.verdict(base, noisy, pairs(base, noisy), "lower", 0.1) == "unresolved"
