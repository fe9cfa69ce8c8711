"""Batched BLAS-1: numerics against NumPy, in-place semantics, ledger."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import blas
from repro.core.counters import TrafficLedger
from repro.exceptions import DimensionMismatchError


@pytest.fixture
def xy(rng):
    return rng.standard_normal((4, 9)), rng.standard_normal((4, 9))


class TestDotNorm:
    def test_dot_matches_numpy(self, xy):
        x, y = xy
        assert np.allclose(blas.dot(x, y), np.sum(x * y, axis=1))

    def test_norm2_matches_numpy(self, xy):
        x, _ = xy
        assert np.allclose(blas.norm2(x), np.linalg.norm(x, axis=1))

    def test_shape_mismatch_rejected(self, xy):
        x, _ = xy
        with pytest.raises(DimensionMismatchError):
            blas.dot(x, x[:, :5])


class TestAxpyFamily:
    def test_axpy_scalar_alpha(self, xy):
        x, y = xy
        expected = y + 2.5 * x
        out = blas.axpy(2.5, x, y)
        assert out is y
        assert np.allclose(y, expected)

    def test_axpy_per_system_alpha(self, xy):
        x, y = xy
        alpha = np.arange(4.0)
        expected = y + alpha[:, None] * x
        blas.axpy(alpha, x, y)
        assert np.allclose(y, expected)

    def test_axpby(self, xy):
        x, y = xy
        expected = 2.0 * x - 3.0 * y
        blas.axpby(2.0, x, -3.0, y)
        assert np.allclose(y, expected)

    def test_scal(self, xy):
        x, _ = xy
        expected = 0.5 * x
        blas.scal(0.5, x)
        assert np.allclose(x, expected)

    def test_copy(self, xy):
        x, y = xy
        blas.copy(x, y)
        assert np.array_equal(x, y)
        x[0, 0] = 999.0
        assert y[0, 0] != 999.0  # deep copy

    def test_bad_alpha_shape_rejected(self, xy):
        x, y = xy
        with pytest.raises(DimensionMismatchError):
            blas.axpy(np.ones(3), x, y)

    @pytest.mark.parametrize("op", ["axpy", "axpby"])
    def test_float32_alpha_promotes_to_float64(self, op):
        # per-system float32 scalars act as float64: the rounding of a
        # single-precision solve does not depend on the scalars' dtype
        rng = np.random.default_rng(3)
        x = rng.standard_normal((5, 7)).astype(np.float32)
        y = rng.standard_normal((5, 7)).astype(np.float32)
        alpha = rng.standard_normal(5).astype(np.float32)
        beta = rng.standard_normal(5).astype(np.float32)

        def run(a):
            out = y.copy()
            if op == "axpy":
                return blas.axpy(a, x, out)
            return blas.axpby(a, x, beta, out)

        assert run(alpha).tobytes() == run(alpha.astype(np.float64)).tobytes()

    def test_elementwise_mul(self, xy):
        x, y = xy
        out = np.empty_like(x)
        blas.elementwise_mul(x, y, out)
        assert np.allclose(out, x * y)


class TestLedgerAccounting:
    def test_dot_tally(self, xy):
        x, y = xy
        ledger = TrafficLedger()
        blas.dot(x, y, ledger, ("r", "z"))
        assert ledger.flops == 2 * 4 * 9
        assert ledger.bytes_by_object == {"r": 8.0 * 36, "z": 8.0 * 36}
        assert ledger.calls["dot"] == 4

    def test_axpy_counts_read_modify_write(self, xy):
        x, y = xy
        ledger = TrafficLedger()
        blas.axpy(1.0, x, y, ledger, ("p", "x"))
        assert ledger.bytes_by_object["p"] == 8.0 * 36
        assert ledger.bytes_by_object["x"] == 16.0 * 36

    def test_ledger_merge(self):
        a, b = TrafficLedger(), TrafficLedger()
        a.add_flops(5)
        a.add_bytes("r", 10)
        a.add_call("dot")
        b.add_flops(7)
        b.add_bytes("r", 2)
        b.add_bytes("z", 3)
        merged = a.merged(b)
        assert merged.flops == 12
        assert merged.bytes_by_object == {"r": 12, "z": 3}
        assert merged.calls == {"dot": 1}

    def test_add_scaled_by_zero_adds_no_key(self):
        one_pass = TrafficLedger()
        one_pass.add_flops(4)
        one_pass.add_bytes("r", 8)
        one_pass.add_call("dot")
        ledger = TrafficLedger()
        ledger.add_bytes("b", 16)
        ledger.add_scaled(one_pass, 0)
        assert ledger.flops == 0.0
        assert ledger.bytes_by_object == {"b": 16}
        assert ledger.calls == {}

    @pytest.mark.parametrize("times", [1, 2, 7])
    def test_add_scaled_equals_repeated_merge(self, times):
        setup = TrafficLedger()
        setup.add_flops(3)
        setup.add_bytes("b", 12)
        setup.add_call("norm", 2)
        one_pass = TrafficLedger()
        one_pass.add_flops(10)
        one_pass.add_bytes("r", 24)
        one_pass.add_bytes("b", 4)
        one_pass.add_call("dot", 2)
        expected = setup
        for _ in range(times):
            expected = expected.merged(one_pass)
        setup.add_scaled(one_pass, times)
        assert setup.flops == expected.flops
        assert list(setup.bytes_by_object.items()) == list(expected.bytes_by_object.items())
        assert list(setup.calls.items()) == list(expected.calls.items())

    def test_arithmetic_intensity(self):
        ledger = TrafficLedger()
        ledger.add_flops(100)
        ledger.add_bytes("x", 50)
        assert ledger.arithmetic_intensity() == 2.0
        assert TrafficLedger().arithmetic_intensity() == 0.0


@settings(max_examples=30, deadline=None)
@given(
    nb=st.integers(1, 5),
    n=st.integers(1, 16),
    seed=st.integers(0, 10_000),
    alpha=st.floats(-10, 10, allow_nan=False),
)
def test_axpy_property(nb, n, seed, alpha):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((nb, n))
    y = rng.standard_normal((nb, n))
    expected = y + alpha * x
    blas.axpy(alpha, x, y)
    assert np.allclose(y, expected)


@settings(max_examples=30, deadline=None)
@given(nb=st.integers(1, 5), n=st.integers(1, 16), seed=st.integers(0, 10_000))
def test_norm_dot_consistency_property(nb, n, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((nb, n))
    assert np.allclose(blas.norm2(x) ** 2, blas.dot(x, x))
