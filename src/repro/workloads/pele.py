"""Surrogates for the PeleLM + SUNDIALS chemistry matrices (Table 4).

The paper extracts, for five reaction mechanisms, the Newton-system
Jacobians ``A = I - gamma J`` that SUNDIALS' BDF integrator hands to the
linear solver, one system per mesh cell, all sharing the mechanism's
sparsity pattern; it then replicates a few cells' matrices to emulate a
larger mesh (Section 4.1). The real matrices are not shipped with the
paper, so this module builds surrogates that match Table 4 *exactly* —
mechanism name, number of unique matrices, matrix size, non-zeros per
matrix — and match the properties the solver actually sees:

* one shared sparsity pattern with a full diagonal (species always couple
  to themselves) and a symmetric *pattern* (if species a appears in a
  reaction with b, both Jacobian entries are structurally present) with
  nonsymmetric *values* — hence non-SPD, which is why the paper can only
  run BatchBicgstab on these inputs;
* strict diagonal dominance, mirroring the ``I - gamma J`` structure at
  practical BDF step sizes, so scalar-Jacobi-preconditioned BiCGSTAB
  converges in a realistic few-tens-of-iterations budget.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from repro.core.matrix import BatchCsr, BatchEll


@dataclass(frozen=True)
class PeleMechanism:
    """One row of Table 4."""

    name: str
    num_unique: int
    num_rows: int
    nnz: int

    def __post_init__(self) -> None:
        if self.nnz < self.num_rows:
            raise ValueError(
                f"{self.name}: nnz ({self.nnz}) must cover the full diagonal "
                f"({self.num_rows})"
            )
        if self.nnz > self.num_rows * self.num_rows:
            raise ValueError(f"{self.name}: nnz exceeds the dense size")


#: Table 4 of the paper (the five PeleLM mechanisms).
MECHANISMS: dict[str, PeleMechanism] = {
    m.name: m
    for m in (
        PeleMechanism("drm19", num_unique=67, num_rows=22, nnz=438),
        PeleMechanism("gri12", num_unique=73, num_rows=33, nnz=978),
        PeleMechanism("gri30", num_unique=90, num_rows=54, nnz=2560),
        PeleMechanism("dodecane_lu", num_unique=78, num_rows=54, nnz=2332),
        PeleMechanism("isooctane", num_unique=72, num_rows=144, nnz=6135),
    )
}


def table4_rows() -> list[dict[str, object]]:
    """Table 4 as dict rows (including the 3-pt stencil formula row)."""
    rows: list[dict[str, object]] = [
        {
            "input": "3pt stencil",
            "num_unique": None,
            "matrix_size": None,
            "nnz_per_matrix": "3 x n_rows",
        }
    ]
    for m in MECHANISMS.values():
        rows.append(
            {
                "input": m.name,
                "num_unique": m.num_unique,
                "matrix_size": f"{m.num_rows} x {m.num_rows}",
                "nnz_per_matrix": m.nnz,
            }
        )
    return rows


def _mechanism_pattern(mech: PeleMechanism, rng: np.random.Generator):
    """Shared pattern: full diagonal + symmetric off-diagonal positions.

    Off-diagonal pairs are drawn with a bias toward low species indices
    (major species couple with everything, minor ones sparsely) to give
    the banded-plus-dense-rows look of chemistry Jacobians.
    """
    n = mech.num_rows
    off_needed = mech.nnz - n
    pairs_needed, extra = divmod(off_needed, 2)

    mask = np.zeros((n, n), dtype=bool)
    np.fill_diagonal(mask, True)

    # candidate upper-triangle pairs weighted toward small (i + j)
    iu, ju = np.triu_indices(n, k=1)
    weights = 1.0 / (1.0 + iu + ju).astype(np.float64)
    weights /= weights.sum()
    order = rng.choice(iu.shape[0], size=iu.shape[0], replace=False, p=weights)
    chosen = order[:pairs_needed]
    mask[iu[chosen], ju[chosen]] = True
    mask[ju[chosen], iu[chosen]] = True
    if extra:
        # odd nnz: one unpaired entry breaks the structural symmetry
        leftover = order[pairs_needed]
        mask[iu[leftover], ju[leftover]] = True

    rows, cols = np.nonzero(mask)
    row_ptrs = np.zeros(n + 1, dtype=np.int32)
    np.add.at(row_ptrs, rows + 1, 1)
    row_ptrs = np.cumsum(row_ptrs, dtype=np.int32)
    return row_ptrs, cols.astype(np.int32), rows.astype(np.int32)


def pele_batch(
    name: str,
    num_batch: int | None = None,
    fmt: str = "csr",
    seed: int = 0,
    gamma: float = 0.25,
):
    """Build a mechanism's batch, replicated to ``num_batch`` items.

    ``num_batch`` defaults to the mechanism's unique-matrix count; larger
    batches cycle the unique value sets, replicating the paper's
    emulate-a-larger-mesh procedure. ``gamma`` is the BDF step-scaled
    coefficient in ``A = I - gamma J``; smaller gamma means more
    diagonally dominant, faster-converging systems.
    """
    if name not in MECHANISMS:
        raise KeyError(f"unknown mechanism {name!r}; available: {sorted(MECHANISMS)}")
    if fmt not in ("csr", "ell"):
        raise ValueError(f"fmt must be 'csr' or 'ell', got {fmt!r}")
    if not 0.0 < gamma < 1.0:
        raise ValueError(f"gamma must be in (0, 1), got {gamma}")
    mech = MECHANISMS[name]
    nb = mech.num_unique if num_batch is None else int(num_batch)
    if nb <= 0:
        raise ValueError(f"num_batch must be positive, got {nb}")

    # a stable digest: str hashes are salted per process (PYTHONHASHSEED)
    rng = np.random.default_rng(seed + zlib.crc32(name.encode()) % 100003)
    row_ptrs, col_idxs, row_of = _mechanism_pattern(mech, rng)
    n, nnz = mech.num_rows, mech.nnz

    # Unique value sets: J entries ~ heavy-tailed around zero, then
    # A = I - gamma * J with the diagonal lifted to strict dominance.
    unique_vals = np.empty((mech.num_unique, nnz))
    off_mask = col_idxs != row_of
    for u in range(mech.num_unique):
        j_vals = rng.standard_normal(nnz) * np.abs(rng.standard_normal(nnz))
        a_vals = -gamma * j_vals
        # per-row off-diagonal magnitudes -> dominant diagonal
        row_abs = np.zeros(n)
        np.add.at(row_abs, row_of[off_mask], np.abs(a_vals[off_mask]))
        dominance = 1.0 + 0.5 * rng.random(n)
        diag_positions = np.flatnonzero(~off_mask)
        a_vals[diag_positions] = dominance * row_abs + 1.0
        unique_vals[u] = a_vals

    reps = np.resize(np.arange(mech.num_unique), nb)
    values = unique_vals[reps]
    csr = BatchCsr(row_ptrs, col_idxs, values, num_cols=n)
    if fmt == "ell":
        return BatchEll.from_batch_csr(csr)
    return csr


def pele_rhs(matrix, seed: int = 1) -> np.ndarray:
    """Right-hand sides shaped like chemistry residuals (positive, decaying)."""
    rng = np.random.default_rng(seed)
    nb, n = matrix.num_batch, matrix.num_rows
    scale = np.exp(-0.05 * np.arange(n))
    return scale[None, :] * (0.5 + rng.random((nb, n)))
