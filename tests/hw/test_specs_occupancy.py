"""GPU specs (Table 5), terminology (Table 1) and the occupancy model."""

import pytest

from repro.core.launch import KernelLaunchPlan, LaunchConfigurator
from repro.hw.occupancy import occupancy_report, resident_groups
from repro.hw.specs import GPUS, TERMINOLOGY_MAP, gpu, table5_rows


class TestSpecs:
    def test_table5_values(self):
        rows = {r["gpu"]: r for r in table5_rows()}
        assert rows["A100"]["fp64_peak_tflops"] == 9.7
        assert rows["H100"]["fp64_peak_tflops"] == 26.0
        assert rows["PVC-1S"]["fp64_peak_tflops"] == 22.9
        assert rows["PVC-2S"]["fp64_peak_tflops"] == 45.8
        assert rows["PVC-2S"]["hbm_bw_peak_tbs"] == 3.2
        assert rows["A100"]["slm_kb"] == 192
        assert rows["H100"]["slm_kb"] == 228
        assert rows["PVC-1S"]["slm_kb"] == 128

    def test_terminology_table1(self):
        assert TERMINOLOGY_MAP["CUDA Core"] == "XVE"
        assert TERMINOLOGY_MAP["Streaming Multiprocessor"] == "Xe-Core (XC)"
        assert TERMINOLOGY_MAP["Processor Cluster"] == "Xe-Slice"
        assert TERMINOLOGY_MAP["N/A"] == "Xe-Stack"

    def test_pvc2_doubles_compute_units(self):
        assert gpu("pvc2").num_cus == 2 * gpu("pvc1").num_cus

    def test_unknown_key_raises(self):
        with pytest.raises(KeyError, match="unknown GPU"):
            gpu("mi250")

    def test_per_cu_peaks_are_consistent(self):
        for spec in GPUS.values():
            assert spec.fp64_flops_per_cu * spec.num_cus == pytest.approx(
                spec.fp64_peak_tflops * 1e12
            )

    def test_aggregate_slm_bandwidth(self):
        spec = gpu("pvc1")
        assert spec.slm_bw_total_tbs == pytest.approx(
            spec.slm_eff_gbps_per_cu * 64 / 1000
        )


def _plan(wg=64, sg=16, slm=8 * 1024, groups=1000):
    return KernelLaunchPlan(
        num_groups=groups,
        work_group_size=wg,
        sub_group_size=sg,
        reduction_scope="work_group",
        slm_bytes_per_group=slm,
    )


class TestResidency:
    def test_greedy_policy_is_one_group_per_cu(self):
        assert resident_groups(gpu("pvc1"), _plan()) == 1


class TestOccupancyReport:
    def test_dodecane_case_matches_paper_fig8(self):
        # 54 rows -> wg 64, sg 16 -> 4 hardware threads on 8 XVEs = 50%
        cfg = LaunchConfigurator(gpu("pvc1").device)
        plan = cfg.configure(54, 2**17)
        report = occupancy_report(gpu("pvc1"), plan, 2**17)
        assert report.hw_threads_per_group == 4
        assert report.xve_threading_occupancy == pytest.approx(0.5)

    def test_waves_scale_with_batch(self):
        plan = _plan()
        small = occupancy_report(gpu("pvc1"), plan, 2**13)
        large = occupancy_report(gpu("pvc1"), plan, 2**17)
        assert large.waves == 16 * small.waves

    def test_two_stacks_halve_waves(self):
        plan = _plan()
        one = occupancy_report(gpu("pvc1"), plan, 2**17)
        two = occupancy_report(gpu("pvc2"), plan, 2**17)
        assert one.waves == 2 * two.waves

    def test_occupancy_capped_at_one(self):
        plan = _plan(wg=1024, sg=16)  # 64 threads on 8 XVEs
        report = occupancy_report(gpu("pvc1"), plan, 100)
        assert report.xve_threading_occupancy == 1.0

    def test_positive_batch_required(self):
        with pytest.raises(ValueError):
            occupancy_report(gpu("pvc1"), _plan(), 0)

    def test_as_dict_round_trip(self):
        report = occupancy_report(gpu("a100"), _plan(sg=32), 1024)
        d = report.as_dict()
        assert d["waves"] == report.waves
        assert d["resident_groups_per_cu"] == 1
