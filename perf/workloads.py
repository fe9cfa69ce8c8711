"""Seeded inputs for the benchmark: arrivals, stencils and chemistry shapes.

Everything here is derived from the ``--seed`` alone through
``numpy.random.default_rng([seed, stream])``; nothing reads
``repro.workloads`` or Python's salted ``hash()``, so two commits under
comparison receive byte-identical inputs. :class:`Fingerprint` hashes the
arrays a run actually used; every result records it as proof.

The answer check (:func:`rel_residuals`) uses NumPy alone, so it never
relies on the code under test.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

#: Table 4 of the paper: (unique matrices, rows, non-zeros per matrix).
TABLE4 = {
    "drm19": (67, 22, 438),
    "gri12": (73, 33, 978),
    "gri30": (90, 54, 2560),
    "dodecane_lu": (78, 54, 2332),
    "isooctane": (72, 144, 6135),
}

# RNG streams: one per independent input family, so adding a draw to one
# family never shifts another family's values.
STREAM_ARRIVALS = 1
STREAM_KEYS = 2
STREAM_SYSTEMS = 3
STREAM_ROUNDS = 4


def rng_for(seed: int, stream: int, *more: int) -> np.random.Generator:
    """The generator of one input family (``stream``) under ``seed``."""
    return np.random.default_rng([int(seed), int(stream), *map(int, more)])


class Fingerprint:
    """Running SHA-256 over every input array a run consumes."""

    def __init__(self) -> None:
        self._h = hashlib.sha256()

    def add(self, *arrays) -> None:
        for a in arrays:
            a = np.ascontiguousarray(a)
            self._h.update(str((a.dtype.str, a.shape)).encode())
            self._h.update(a.tobytes())

    def hexdigest(self) -> str:
        return self._h.hexdigest()[:16]


@dataclass(frozen=True)
class Pattern:
    """One shared CSR sparsity pattern (sorted columns, full diagonal)."""

    row_ptrs: np.ndarray
    col_idxs: np.ndarray

    @property
    def num_rows(self) -> int:
        return self.row_ptrs.shape[0] - 1

    @property
    def nnz(self) -> int:
        return self.col_idxs.shape[0]

    @property
    def rows(self) -> np.ndarray:
        """Row index of every stored entry."""
        return np.repeat(np.arange(self.num_rows), np.diff(self.row_ptrs))

    def scipy(self, values: np.ndarray):
        """One system of this pattern as a scipy CSR matrix."""
        n = self.num_rows
        return sp.csr_matrix((values, self.col_idxs, self.row_ptrs), shape=(n, n))


def _pattern_from_mask(mask: np.ndarray) -> Pattern:
    rows, cols = np.nonzero(mask)  # row-major, so columns sorted per row
    counts = np.bincount(rows, minlength=mask.shape[0])
    row_ptrs = np.concatenate(([0], np.cumsum(counts))).astype(np.int32)
    return Pattern(row_ptrs, cols.astype(np.int32))


# -- arrivals -----------------------------------------------------------------


def poisson_offsets(rate_rps: float, duration_s: float, rng: np.random.Generator) -> np.ndarray:
    """Open-loop send times in ``[0, duration_s)`` at exactly ``rate * duration`` requests.

    Gaps are exponential, as between Poisson arrivals, and scaled so the
    phase offers exactly its nominal rate. They are the exponential
    distribution's quantiles at evenly spaced probabilities, in an order
    the seed draws: every seed offers the same set of gaps, hence the same
    share of requests arriving close behind another, and changes only
    their order. Independent draws moved the 90th latency percentile of
    ``serve_keys_open`` by several percent from seed to seed.
    """
    count = max(1, int(round(rate_rps * duration_s)))
    levels = (np.arange(count + 1) + 0.5) / (count + 1)
    gaps = rng.permutation(-np.log1p(-levels))
    offsets = np.cumsum(gaps)[:-1]
    return offsets * (duration_s / np.sum(gaps))


# -- 3-point stencils -----------------------------------------------------------


def stencil_pattern(n: int) -> Pattern:
    """Tridiagonal pattern, ``3n - 2`` entries."""
    idx = np.arange(n)
    mask = np.zeros((n, n), dtype=bool)
    mask[idx, idx] = True
    mask[idx[1:], idx[:-1]] = True
    mask[idx[:-1], idx[1:]] = True
    return _pattern_from_mask(mask)


def stencil_values(n: int, count: int, spd: bool, rng: np.random.Generator) -> np.ndarray:
    """``(count, 3n - 2)`` values on :func:`stencil_pattern` order.

    ``spd=True`` draws one off-diagonal per edge and mirrors it, with a
    diagonal of at least the absolute row sum (irreducibly diagonally
    dominant, hence SPD: CG applies). ``spd=False`` draws the lower and
    upper bands independently (a convection-like, strictly dominant
    nonsymmetric operator for BiCGSTAB).
    """
    pattern = stencil_pattern(n)
    rows, cols = pattern.rows, pattern.col_idxs
    lower = -(0.9 + 0.1 * rng.random((count, n - 1)))
    upper = lower if spd else -(0.4 + 0.2 * rng.random((count, n - 1)))
    diag = 2.0 + (0.05 if spd else 0.1) * rng.random((count, n))
    values = np.empty((count, pattern.nnz))
    on = rows == cols
    below = cols < rows
    above = cols > rows
    values[:, on] = diag
    values[:, below] = lower[:, cols[below]]
    values[:, above] = upper[:, rows[above]]
    return values


# -- Table-4-shaped chemistry systems ---------------------------------------------


def chemistry_pattern(shape: str, rng: np.random.Generator) -> Pattern:
    """A Table-4 pattern: full diagonal plus mirrored off-diagonal pairs.

    Pairs favour low species indices (major species couple to many
    others), and an odd off-diagonal count leaves one unpaired entry, so
    the non-zero count matches Table 4 exactly.
    """
    _unique, n, nnz = TABLE4[shape]
    pairs, odd = divmod(nnz - n, 2)
    iu, ju = np.triu_indices(n, k=1)
    weights = 1.0 / (1.0 + np.minimum(iu, ju))
    chosen = rng.choice(iu.shape[0], size=pairs + odd, replace=False, p=weights / weights.sum())
    mask = np.eye(n, dtype=bool)
    mask[iu[chosen[:pairs]], ju[chosen[:pairs]]] = True
    mask[ju[chosen[:pairs]], iu[chosen[:pairs]]] = True
    if odd:
        mask[iu[chosen[-1]], ju[chosen[-1]]] = True
    return _pattern_from_mask(mask)


def chemistry_values(pattern: Pattern, count: int, rng: np.random.Generator) -> np.ndarray:
    """``(count, nnz)`` values shaped like ``I - gamma J`` Newton matrices.

    Heavy-tailed nonsymmetric off-diagonals and a diagonal lifted above
    the absolute row sum: non-SPD (BiCGSTAB territory) and well inside
    scalar-Jacobi BiCGSTAB's reach.
    """
    rows, cols = pattern.rows, pattern.col_idxs
    off = rows != cols
    values = -0.25 * rng.standard_normal((count, pattern.nnz)) * np.abs(
        rng.standard_normal((count, pattern.nnz))
    )
    row_abs = np.zeros((count, pattern.num_rows))
    np.add.at(row_abs, (slice(None), rows[off]), np.abs(values[:, off]))
    lift = 1.0 + 0.5 * rng.random((count, pattern.num_rows))
    values[:, ~off] = lift * row_abs + 1.0
    return values


def chemistry_rhs(count: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """Positive right-hand sides decaying over species, like chemistry residuals."""
    return np.exp(-0.05 * np.arange(n)) * (0.5 + rng.random((count, n)))


# -- answer check --------------------------------------------------------------------


def rel_residuals(pattern: Pattern, values: np.ndarray, b: np.ndarray, x: np.ndarray) -> np.ndarray:
    """True relative residuals ``||b - A x|| / ||b||`` of a shared-pattern batch."""
    values = np.atleast_2d(values)
    b = np.atleast_2d(b)
    x = np.atleast_2d(x)
    products = values * x[:, pattern.col_idxs]
    ax = np.add.reduceat(products, pattern.row_ptrs[:-1], axis=1)
    return np.linalg.norm(b - ax, axis=1) / np.linalg.norm(b, axis=1)
