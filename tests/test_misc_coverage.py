"""Cross-cutting coverage: option plumbing, model edges, generator knobs."""

import numpy as np
import pytest
from hypothesis import given, settings as hsettings, strategies as st

from repro.core import (
    BatchBicgstab,
    BatchCg,
    BatchGmres,
    BatchJacobi,
    SolverSettings,
)
from repro.core.dispatch import BatchSolverFactory, dispatch_solve
from repro.core.stop import AbsoluteResidual, RelativeResidual
from repro.core.workspace import SlmBudget, plan_workspace
from repro.hw.memmodel import split_traffic
from repro.hw.specs import gpu
from repro.hw.timing import estimate_runtime, estimate_solve
from repro.multi.comm import SimWorld, _payload_bytes
from repro.utils.units import format_bytes, format_flops, format_time
from repro.workloads.pele import pele_batch, pele_rhs
from repro.workloads.stencil import three_point_stencil


class TestDispatchOptionPlumbing:
    def test_gmres_restart_option(self, dd_batch, rng):
        b = rng.standard_normal((8, 12))
        result = dispatch_solve(dd_batch, b, solver="gmres", restart=4, tolerance=1e-8)
        assert result.all_converged

    def test_richardson_omega_option(self, dd_batch, rng):
        b = rng.standard_normal((8, 12))
        factory = BatchSolverFactory(
            solver="richardson",
            preconditioner="jacobi",
            tolerance=1e-8,
            max_iterations=3000,
            solver_options={"omega": 0.9},
        )
        solver = factory.create(dd_batch)
        assert solver.omega == 0.9
        assert solver.solve(b).all_converged

    def test_trsv_uplo_option(self, rng):
        from repro.workloads.general import random_triangular_batch

        upper = random_triangular_batch(3, 8, uplo="upper", seed=4)
        b = rng.standard_normal((3, 8))
        result = dispatch_solve(upper, b, solver="trsv", uplo="upper")
        assert result.all_converged

    def test_block_jacobi_block_size_option(self, dd_batch, rng):
        b = rng.standard_normal((8, 12))
        factory = BatchSolverFactory(
            solver="bicgstab",
            preconditioner="block_jacobi",
            preconditioner_options={"block_size": 3},
            tolerance=1e-9,
        )
        solver = factory.create(dd_batch)
        assert solver.preconditioner.block_size == 3
        assert solver.solve(b).all_converged

    def test_keep_history_plumbed(self, dd_batch, rng):
        b = rng.standard_normal((8, 12))
        factory = BatchSolverFactory(
            solver="bicgstab", tolerance=1e-8, keep_history=True
        )
        result = factory.solve(dd_batch, b)
        assert result.logger.history.shape[1] == 8


class TestSolverEdges:
    def test_gmres_restart_equal_to_n(self, dd_batch, rng):
        b = rng.standard_normal((8, 12))
        solver = BatchGmres(dd_batch, restart=100)  # clamps to n
        assert solver.restart == 12
        assert solver.solve(b).x.shape == (8, 12)

    def test_absolute_criterion_cg(self, spd_batch, rng):
        b = rng.standard_normal((8, 12))
        settings = SolverSettings(max_iterations=400, criterion=AbsoluteResidual(1e-6))
        result = BatchCg(spd_batch, settings=settings).solve(b)
        assert result.all_converged
        assert np.all(result.residual_norms <= 1e-6)

    def test_history_available_for_bicgstab(self, dd_batch, rng):
        b = rng.standard_normal((8, 12))
        settings = SolverSettings(
            max_iterations=400, criterion=RelativeResidual(1e-9), keep_history=True
        )
        result = BatchBicgstab(dd_batch, settings=settings).solve(b)
        hist = result.logger.history
        assert np.all(hist[-1] <= hist[0] + 1e-12)

    def test_x0_broadcast_1d(self, spd_batch, rng):
        b = rng.standard_normal((8, 12))
        result = BatchCg(spd_batch).solve(b, x0=np.zeros(12))
        assert result.all_converged


class TestHwModelEdges:
    @pytest.fixture
    def solved(self):
        matrix = three_point_stencil(32, 4)
        solver = BatchCg(
            matrix,
            settings=SolverSettings(
                max_iterations=500, criterion=RelativeResidual(1e-8)
            ),
        )
        from repro.workloads.stencil import stencil_rhs

        return solver, solver.solve(stencil_rhs(32, 4))

    def test_estimate_runtime_validates(self, solved):
        solver, result = solved
        spec = gpu("a100")
        timing = estimate_solve(spec, solver, result)
        with pytest.raises(ValueError):
            estimate_runtime(
                spec,
                timing.split_per_group_iter,
                iterations=0,
                num_batch=8,
                plan=timing.launch_plan,
                workspace=timing.workspace_plan,
            )
        with pytest.raises(ValueError):
            estimate_runtime(
                spec,
                timing.split_per_group_iter,
                iterations=1,
                num_batch=8,
                plan=timing.launch_plan,
                workspace=timing.workspace_plan,
                flop_rate_scale=0.0,
            )

    def test_precond_traffic_follows_plan(self):
        from repro.core.counters import TrafficLedger

        ledger = TrafficLedger()
        ledger.add_bytes("precond", 10.0)
        in_slm = plan_workspace([("r", 1)], SlmBudget(10**6), precond_doubles=4)
        spilled = plan_workspace([("r", 1)], SlmBudget(8), precond_doubles=4)
        assert split_traffic(ledger, in_slm).slm_bytes == 10.0
        assert split_traffic(ledger, spilled).l2_bytes == 10.0

class TestWorkloadKnobs:
    def test_pele_gamma_controls_difficulty(self):
        # larger gamma -> weaker dominance -> more iterations
        settings = SolverSettings(max_iterations=300, criterion=RelativeResidual(1e-9))
        iters = []
        for gamma in (0.1, 0.5, 0.9):
            m = pele_batch("drm19", num_batch=8, gamma=gamma)
            solver = BatchBicgstab(m, BatchJacobi(m), settings=settings)
            iters.append(solver.solve(pele_rhs(m)).iterations.mean())
        assert iters[0] < iters[-1]

    def test_stencil_deterministic_per_seed(self):
        a = three_point_stencil(16, 4, seed=3)
        b = three_point_stencil(16, 4, seed=3)
        c = three_point_stencil(16, 4, seed=4)
        assert np.allclose(a.values, b.values)
        assert not np.allclose(a.values, c.values)

    def test_pele_unique_count_override(self):
        m = pele_batch("gri30", num_batch=10)
        assert m.num_batch == 10


class TestSimWorldPayloads:
    def test_scalar_and_nested_payloads(self):
        assert _payload_bytes(None) == 0.0
        assert _payload_bytes(3.14) == 8.0
        assert _payload_bytes([np.ones(2), np.ones(3)]) == 40.0

    def test_unknown_payload_rejected(self):
        with pytest.raises(TypeError):
            _payload_bytes(object())

    def test_bad_rank_transfer_rejected(self):
        world = SimWorld(2)
        with pytest.raises(ValueError):
            world.record_transfer(0, 5, 10.0)
        with pytest.raises(ValueError):
            world.record_transfer(0, 1, -1.0)


class TestUnitsProperties:
    @hsettings(max_examples=40, deadline=None)
    @given(value=st.floats(0.0, 1e18, allow_nan=False))
    def test_format_bytes_never_crashes_and_scales(self, value):
        text = format_bytes(value)
        magnitude = float(text.split()[0])
        assert 0.0 <= magnitude < 1000.0 or text.endswith("PB")

    def test_flops_and_time_units(self):
        assert format_flops(1e12).endswith("TFLOP/s")
        assert format_time(1e-6) == "1 us"
