"""Batched BLAS-1 building blocks (Section 3.2).

The solvers compose from these device-kernel equivalents: dot, 2-norm,
axpy-family updates, scaling and copies, all vectorized across the batch.
Per-system scalars are ``(num_batch,)`` arrays; vectors are
``(num_batch, n)`` arrays. Every routine optionally tallies FLOPs and
per-object traffic into a :class:`~repro.core.counters.TrafficLedger`,
attributing bytes to the *named* operands so the workspace planner can
split SLM from global-memory traffic.

In-place variants write into ``out`` to avoid allocations in the solver
iteration loops (the vectorized path allocates its workspace once per
solve, mirroring the single-kernel design of Section 3.4).
"""

from __future__ import annotations

import numpy as np

from repro.core.counters import TrafficLedger
from repro.exceptions import DimensionMismatchError


def _check_same_shape(x: np.ndarray, y: np.ndarray, op: str) -> None:
    if x.shape != y.shape:
        raise DimensionMismatchError(f"{op}: operand shapes differ: {x.shape} vs {y.shape}")


def _as_batch_scalar(alpha, num_batch: int) -> np.ndarray:
    """Normalize a scalar or per-system array to float64 ``(num_batch, 1)``."""
    if isinstance(alpha, np.ndarray) and alpha.dtype == np.float64 and alpha.shape == (num_batch,):
        return alpha[:, None]
    arr = np.asarray(alpha, dtype=np.float64)
    if arr.ndim == 0:
        return np.full((num_batch, 1), float(arr))
    if arr.shape == (num_batch,):
        return arr[:, None]
    if arr.shape == (num_batch, 1):
        return arr
    raise DimensionMismatchError(
        f"batch scalar must be scalar or ({num_batch},), got shape {arr.shape}"
    )


def dot(
    x: np.ndarray,
    y: np.ndarray,
    ledger: TrafficLedger | None = None,
    names: tuple[str, str] = ("x", "y"),
) -> np.ndarray:
    """Per-system dot products ``(num_batch,)``."""
    _check_same_shape(x, y, "dot")
    result = np.einsum("bi,bi->b", x, y)
    if ledger is not None:
        ledger.tally_dot(x.shape[0], x.shape[1], names[0], names[1])
    return result


def norm2(
    x: np.ndarray,
    ledger: TrafficLedger | None = None,
    name: str = "x",
) -> np.ndarray:
    """Per-system Euclidean norms ``(num_batch,)``."""
    result = np.sqrt(np.einsum("bi,bi->b", x, x))
    if ledger is not None:
        ledger.tally_norm2(x.shape[0], x.shape[1], name)
    return result


def axpy(
    alpha,
    x: np.ndarray,
    y: np.ndarray,
    ledger: TrafficLedger | None = None,
    names: tuple[str, str] = ("x", "y"),
) -> np.ndarray:
    """In-place ``y += alpha * x`` with scalar or per-system ``alpha``."""
    _check_same_shape(x, y, "axpy")
    a = _as_batch_scalar(alpha, x.shape[0])
    y += a * x
    if ledger is not None:
        ledger.tally_axpy(x.shape[0], x.shape[1], names[0], names[1])
    return y


def axpby(
    alpha,
    x: np.ndarray,
    beta,
    y: np.ndarray,
    ledger: TrafficLedger | None = None,
    names: tuple[str, str] = ("x", "y"),
) -> np.ndarray:
    """In-place ``y = alpha * x + beta * y``."""
    _check_same_shape(x, y, "axpby")
    y *= _as_batch_scalar(beta, x.shape[0])
    if isinstance(alpha, float) and alpha == 1.0:
        y += x  # 1.0 * x == x bitwise
    else:
        y += _as_batch_scalar(alpha, x.shape[0]) * x
    if ledger is not None:
        # axpby moves the same operands as axpy plus one extra scale pass of y
        ledger.tally_axpy(x.shape[0], x.shape[1], names[0], names[1])
        ledger.tally_scal(x.shape[0], x.shape[1], names[1])
    return y


def scal(
    alpha,
    x: np.ndarray,
    ledger: TrafficLedger | None = None,
    name: str = "x",
) -> np.ndarray:
    """In-place ``x *= alpha``."""
    a = _as_batch_scalar(alpha, x.shape[0])
    x *= a
    if ledger is not None:
        ledger.tally_scal(x.shape[0], x.shape[1], name)
    return x


def copy(
    src: np.ndarray,
    dst: np.ndarray,
    ledger: TrafficLedger | None = None,
    names: tuple[str, str] = ("src", "dst"),
) -> np.ndarray:
    """In-place ``dst[...] = src``."""
    _check_same_shape(src, dst, "copy")
    dst[...] = src
    if ledger is not None:
        ledger.tally_copy(src.shape[0], src.shape[1], names[0], names[1])
    return dst


def elementwise_mul(
    x: np.ndarray,
    y: np.ndarray,
    out: np.ndarray,
    ledger: TrafficLedger | None = None,
    names: tuple[str, str, str] = ("x", "y", "out"),
) -> np.ndarray:
    """``out = x * y`` elementwise — the scalar-Jacobi apply kernel shape."""
    _check_same_shape(x, y, "elementwise_mul")
    _check_same_shape(x, out, "elementwise_mul")
    np.multiply(x, y, out=out)
    if ledger is not None:
        nb, n = x.shape
        ledger.add_flops(float(nb * n))
        for name in names:
            ledger.add_bytes(name, float(ledger.fp_bytes) * nb * n)
        ledger.add_call("elementwise", nb)
    return out
