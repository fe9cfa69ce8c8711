"""Dispatch mechanism, launch configuration and SLM workspace planning."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings as hsettings, strategies as st

from repro.core.dispatch import (
    BatchSolverFactory,
    CRITERIA,
    FORMATS,
    PRECONDITIONERS,
    SOLVERS,
    dispatch_solve,
    feature_matrix,
)
from repro.core.launch import (
    DEFAULT_SUB_GROUP_THRESHOLD_ROWS,
    LaunchConfigurator,
    SUB_GROUP_REDUCE,
    WORK_GROUP_REDUCE,
)
from repro.core.workspace import GLOBAL, SLM, SlmBudget, plan_workspace
from repro.cudasim.device import a100_device
from repro.exceptions import DeviceCapabilityError, UnsupportedCombinationError
from repro.sycl.device import pvc_stack_device
from repro.workloads.general import random_diag_dominant_batch, random_spd_batch
from tests.conftest import relative_residuals


class TestFeatureMatrix:
    def test_contains_paper_table3_entries(self):
        fm = feature_matrix()
        for fmt in ("dense", "csr", "ell"):
            assert fmt in fm["matrix_formats"]
        for solver in ("cg", "bicgstab", "gmres", "trsv"):
            assert solver in fm["solvers"]
        for precond in ("jacobi", "ilu", "isai"):
            assert precond in fm["preconditioners"]
        assert fm["stopping_criteria"] == ["absolute", "relative"]


class TestFactoryValidation:
    def test_unknown_solver_rejected(self):
        with pytest.raises(UnsupportedCombinationError):
            BatchSolverFactory(solver="qmr")

    def test_unknown_preconditioner_rejected(self):
        with pytest.raises(UnsupportedCombinationError):
            BatchSolverFactory(preconditioner="amg")

    def test_unknown_criterion_rejected(self):
        with pytest.raises(UnsupportedCombinationError):
            BatchSolverFactory(criterion="energy")

    def test_isai_requires_csr(self):
        from repro.core.matrix import BatchDense

        factory = BatchSolverFactory(solver="bicgstab", preconditioner="isai")
        dense = BatchDense(np.eye(4)[None] * 2.0)
        with pytest.raises(UnsupportedCombinationError, match="csr"):
            factory.create(dense)

    def test_direct_solvers_refuse_preconditioners(self, dd_batch):
        factory = BatchSolverFactory(solver="direct", preconditioner="jacobi")
        with pytest.raises(UnsupportedCombinationError, match="direct"):
            factory.create(dd_batch)


class TestDispatchCombinations:
    @pytest.mark.parametrize("solver", ["cg", "bicgstab", "gmres", "richardson"])
    @pytest.mark.parametrize("precond", ["identity", "jacobi", "ilu", "isai"])
    def test_every_iterative_combination_solves(self, solver, precond):
        # the Table 3 claim: any column can combine with any other
        matrix = (
            random_spd_batch(3, 8, seed=4)
            if solver == "cg"
            else random_diag_dominant_batch(3, 8, seed=4)
        )
        b = np.random.default_rng(0).standard_normal((3, 8))
        factory = BatchSolverFactory(
            solver=solver,
            preconditioner=precond,
            tolerance=1e-8,
            max_iterations=3000,
        )
        if solver == "richardson" and precond == "identity":
            # unpreconditioned Richardson has spectral radius > 1 on these
            # systems; the combination must dispatch and report honestly
            settings_factory = BatchSolverFactory(
                solver=solver, preconditioner=precond, max_iterations=5
            )
            result = settings_factory.solve(matrix, b)
            assert result.x.shape == b.shape
            assert not result.all_converged
            return
        result = factory.solve(matrix, b)
        assert np.max(relative_residuals(matrix, result.x, b)) < 1e-6

    @pytest.mark.parametrize("fmt", ["csr", "ell", "dense"])
    def test_every_format_dispatches(self, fmt):
        from repro.core.matrix import BatchDense, BatchEll

        csr = random_diag_dominant_batch(3, 8, seed=5)
        matrix = {
            "csr": csr,
            "ell": BatchEll.from_batch_csr(csr),
            "dense": BatchDense(csr.to_batch_dense()),
        }[fmt]
        b = np.ones((3, 8))
        result = dispatch_solve(matrix, b, solver="bicgstab", tolerance=1e-9)
        assert result.all_converged

    def test_dispatch_solve_passes_solver_options(self, dd_batch):
        b = np.ones((8, 12))
        result = dispatch_solve(
            dd_batch, b, solver="gmres", tolerance=1e-9, restart=4
        )
        assert result.all_converged

    def test_registries_are_consistent(self):
        assert set(SOLVERS) == set(feature_matrix()["solvers"])
        assert set(PRECONDITIONERS) == set(feature_matrix()["preconditioners"])
        assert set(FORMATS) == set(feature_matrix()["matrix_formats"])
        assert set(CRITERIA) == set(feature_matrix()["stopping_criteria"])


class TestLaunchConfigurator:
    def test_work_group_rounds_up_to_sub_group(self):
        cfg = LaunchConfigurator(pvc_stack_device(1))
        assert cfg.pick_work_group_size(54, 16) == 64
        assert cfg.pick_work_group_size(64, 16) == 64
        assert cfg.pick_work_group_size(65, 32) == 96

    def test_sub_group_16_small_32_large_on_pvc(self):
        cfg = LaunchConfigurator(pvc_stack_device(1))
        assert cfg.pick_sub_group_size(22) == 16
        assert cfg.pick_sub_group_size(DEFAULT_SUB_GROUP_THRESHOLD_ROWS) == 16
        assert cfg.pick_sub_group_size(144) == 32

    def test_cuda_devices_fixed_at_warp(self):
        cfg = LaunchConfigurator(a100_device())
        assert cfg.pick_sub_group_size(8) == 32
        assert cfg.pick_sub_group_size(500) == 32

    def test_reduction_scope_selection(self):
        cfg = LaunchConfigurator(pvc_stack_device(1))
        assert cfg.pick_reduction_scope(16, 16) == SUB_GROUP_REDUCE
        assert cfg.pick_reduction_scope(17, 16) == WORK_GROUP_REDUCE

    def test_oversized_system_clamps_to_device_max(self):
        dev = pvc_stack_device(1)
        cfg = LaunchConfigurator(dev)
        wg = cfg.pick_work_group_size(5000, 32)
        assert wg == dev.max_work_group_size

    def test_configure_builds_valid_nd_range(self):
        cfg = LaunchConfigurator(pvc_stack_device(1))
        plan = cfg.configure(54, 100)
        nd = plan.nd_range()
        assert nd.num_groups == 100
        assert plan.work_group_size % plan.sub_group_size == 0

    def test_threshold_override(self):
        cfg = LaunchConfigurator(pvc_stack_device(1), sub_group_threshold_rows=10)
        assert cfg.pick_sub_group_size(22) == 32

    def test_invalid_inputs(self):
        cfg = LaunchConfigurator(pvc_stack_device(1))
        with pytest.raises(ValueError):
            cfg.configure(0, 10)
        with pytest.raises(ValueError):
            LaunchConfigurator(pvc_stack_device(1), sub_group_threshold_rows=0)

    def test_work_group_clamp_stays_sub_group_aligned(self):
        # a capability-limited device whose max is not a sub-group multiple
        dev = replace(pvc_stack_device(1), max_work_group_size=100)
        cfg = LaunchConfigurator(dev)
        assert cfg.pick_work_group_size(5000, 32) == 96  # 100 // 32 * 32

    def test_device_too_small_for_sub_group_raises(self):
        dev = replace(pvc_stack_device(1), max_work_group_size=8)
        cfg = LaunchConfigurator(dev)
        with pytest.raises(DeviceCapabilityError):
            cfg.pick_work_group_size(100, 16)


class TestWorkspacePlanning:
    def test_cg_priority_order_fills_slm_first(self):
        # capacity for exactly three vectors: r, z, p stay, t/x spill
        vectors = [("r", 10), ("z", 10), ("p", 10), ("t", 10), ("x", 10)]
        plan = plan_workspace(vectors, SlmBudget(3 * 10 * 8))
        assert plan.level_of("r") == SLM
        assert plan.level_of("z") == SLM
        assert plan.level_of("p") == SLM
        assert plan.level_of("t") == GLOBAL
        assert plan.level_of("x") == GLOBAL

    def test_greedy_with_skip_places_smaller_later_objects(self):
        vectors = [("big", 100), ("small", 2)]
        plan = plan_workspace(vectors, SlmBudget(5 * 8))
        assert plan.level_of("big") == GLOBAL
        assert plan.level_of("small") == SLM

    def test_precond_workspace_comes_last(self):
        vectors = [("r", 8), ("z", 8)]
        plan = plan_workspace(vectors, SlmBudget(17 * 8), precond_doubles=8)
        assert plan.level_of("precond") == GLOBAL  # only 1 double left

    def test_matrix_and_rhs_always_global(self):
        plan = plan_workspace([("r", 1)], SlmBudget(10**6))
        assert plan.level_of("A") == GLOBAL
        assert plan.level_of("b") == GLOBAL

    def test_slm_bytes_accounting(self):
        plan = plan_workspace([("r", 4), ("z", 4)], SlmBudget(64))
        assert plan.slm_bytes_used == 64
        assert plan.slm_resident == frozenset({"r", "z"})

    def test_unknown_object_defaults_to_global(self):
        plan = plan_workspace([], SlmBudget(100))
        assert plan.level_of("whatever") == GLOBAL

    @hsettings(max_examples=40, deadline=None)
    @given(
        sizes=st.lists(st.integers(0, 50), min_size=1, max_size=8),
        capacity=st.integers(0, 2000),
    )
    def test_never_exceeds_budget_property(self, sizes, capacity):
        vectors = [(f"v{i}", s) for i, s in enumerate(sizes)]
        plan = plan_workspace(vectors, SlmBudget(capacity))
        assert plan.slm_bytes_used <= capacity
        # everything got a placement
        for name, _ in vectors:
            assert plan.level_of(name) in (SLM, GLOBAL)
