"""BatchCsr: CSR values per item with one shared sparsity pattern.

This is the paper's general-purpose format (Section 3.1): the row-pointer
and column-index arrays are stored once for the whole batch, the value
array holds every item's non-zeros. The batched SpMV is one call of the
compiled kernel that SciPy's ``csr_array @ vector`` runs, over the whole
batch as one block-diagonal matrix: on first use the matrix builds that
matrix's index arrays (block k is item k; for one system they are the
pattern itself) and keeps them, and the kernel reads the value array in
place. Every row sums its products sequentially in stored order, the
order of the ``spmv_csr_item_rows`` kernel.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
# The kernel behind ``csr_array @ vector``. It adds A x into its output
# array, which is what lets the product write into a caller's buffer;
# the public product cannot (tests pin it to ``item_scipy(k) @ x[k]``).
from scipy.sparse._sparsetools import csr_matvec

from repro.core.counters import TrafficLedger
from repro.core.matrix.base import BatchedMatrix, as_float_values
from repro.exceptions import BadSparsityPatternError, DimensionMismatchError

_FP_BYTES = 8
_IDX_BYTES = 4


class BatchCsr(BatchedMatrix):
    """A batch of CSR matrices sharing row pointers and column indices.

    Parameters
    ----------
    row_ptrs:
        ``(num_rows + 1,)`` int array; ``row_ptrs[0] == 0`` and
        ``row_ptrs[-1] == nnz``.
    col_idxs:
        ``(nnz,)`` int array of column indices, in-range; within a row the
        indices must be unique (sorted order is normalized on construction).
    values:
        ``(num_batch, nnz)`` float array — one value row per batch item.
        Kept without a copy when it is C-contiguous, already in the target
        dtype and every row's columns are already sorted.
    num_cols:
        Column count; defaults to ``num_rows`` (square systems).
    """

    format_name = "csr"

    def __init__(
        self,
        row_ptrs: np.ndarray,
        col_idxs: np.ndarray,
        values: np.ndarray,
        num_cols: int | None = None,
        dtype: np.dtype | type | None = None,
    ) -> None:
        row_ptrs = np.ascontiguousarray(np.asarray(row_ptrs, dtype=np.int32))
        col_idxs = np.ascontiguousarray(np.asarray(col_idxs, dtype=np.int32))
        values = as_float_values(values, dtype)
        if values.ndim != 2:
            raise DimensionMismatchError(
                f"BatchCsr values must be (num_batch, nnz), got ndim={values.ndim}"
            )
        num_rows = row_ptrs.shape[0] - 1
        if num_rows <= 0:
            raise BadSparsityPatternError("row_ptrs must have at least 2 entries")
        ncols = int(num_cols) if num_cols is not None else num_rows
        super().__init__(values.shape[0], num_rows, ncols, dtype=values.dtype)

        nnz = values.shape[1]
        _validate_pattern(row_ptrs, col_idxs, nnz, ncols)
        self.row_ptrs = row_ptrs
        self._row_lengths = np.diff(row_ptrs)
        # Row index of every stored non-zero; drives the dense round trip,
        # the transpose and per-row reductions elsewhere.
        self._row_of_nnz = np.repeat(
            np.arange(num_rows, dtype=np.int32), self._row_lengths
        )

        # Normalize to sorted column order within each row so downstream
        # kernels (diagonal lookup, ILU schedules) can binary-search. Sorted
        # input is kept as given, like BatchDense and BatchEll do.
        order = _sort_within_rows(self._row_of_nnz, col_idxs)
        if order is None:
            self.col_idxs = col_idxs
            self.values = np.ascontiguousarray(values)
        else:
            self.col_idxs = col_idxs[order]
            self.values = np.ascontiguousarray(values[:, order])

        self._diag_positions = np.full(num_rows, -1, dtype=np.int64)
        on_diagonal = np.flatnonzero(self.col_idxs == self._row_of_nnz)
        self._diag_positions[self._row_of_nnz[on_diagonal]] = on_diagonal
        self._block_pattern: tuple[np.ndarray, np.ndarray] | None = None

    # -- constructors --------------------------------------------------------------

    @classmethod
    def from_dense(cls, batch: np.ndarray, keep_pattern_of: str = "union") -> "BatchCsr":
        """Build from an ``(nb, rows, cols)`` dense batch.

        The shared pattern is the union of the non-zero locations across
        the batch (``keep_pattern_of="union"``) or the pattern of the first
        item (``"first"``); values of items missing an entry of the shared
        pattern are stored as explicit zeros.
        """
        batch = np.asarray(batch, dtype=np.float64)
        if batch.ndim != 3:
            raise DimensionMismatchError("from_dense expects (nb, rows, cols)")
        if keep_pattern_of == "union":
            mask = np.any(batch != 0.0, axis=0)
        elif keep_pattern_of == "first":
            mask = batch[0] != 0.0
        else:
            raise ValueError(f"unknown keep_pattern_of={keep_pattern_of!r}")
        if not mask.any():
            # keep at least the diagonal so the matrix is representable
            n = min(batch.shape[1], batch.shape[2])
            mask = np.zeros(batch.shape[1:], dtype=bool)
            mask[np.arange(n), np.arange(n)] = True
        rows, cols = np.nonzero(mask)
        row_ptrs = np.zeros(batch.shape[1] + 1, dtype=np.int32)
        np.add.at(row_ptrs, rows + 1, 1)
        row_ptrs = np.cumsum(row_ptrs, dtype=np.int32)
        values = batch[:, rows, cols]
        return cls(row_ptrs, cols.astype(np.int32), values, num_cols=batch.shape[2])

    @classmethod
    def from_scipy_batch(cls, items: list[sp.spmatrix]) -> "BatchCsr":
        """Build from a list of scipy sparse matrices with identical patterns."""
        if not items:
            raise DimensionMismatchError("from_scipy_batch needs at least one matrix")
        ref = items[0].tocsr().sorted_indices()
        ref.eliminate_zeros()
        values = np.empty((len(items), ref.nnz), dtype=np.float64)
        for i, item in enumerate(items):
            csr = item.tocsr().sorted_indices()
            csr.eliminate_zeros()
            same = (
                csr.shape == ref.shape
                and np.array_equal(csr.indptr, ref.indptr)
                and np.array_equal(csr.indices, ref.indices)
            )
            if not same:
                raise BadSparsityPatternError(
                    f"batch item {i} does not share the sparsity pattern of item 0"
                )
            values[i] = csr.data
        return cls(ref.indptr, ref.indices, values, num_cols=ref.shape[1])

    @classmethod
    def from_item_pattern(
        cls, pattern: sp.spmatrix, values: np.ndarray
    ) -> "BatchCsr":
        """Build from one pattern matrix plus a ``(nb, nnz)`` value array."""
        csr = pattern.tocsr().sorted_indices()
        values = np.asarray(values, dtype=np.float64)
        if values.ndim != 2 or values.shape[1] != csr.nnz:
            raise DimensionMismatchError(
                f"values must be (num_batch, {csr.nnz}), got {values.shape}"
            )
        return cls(csr.indptr, csr.indices, values, num_cols=csr.shape[1])

    # -- BatchedMatrix interface ------------------------------------------------------

    @property
    def nnz_per_item(self) -> int:
        return int(self.values.shape[1])

    def apply(
        self,
        x: np.ndarray,
        out: np.ndarray | None = None,
        ledger: TrafficLedger | None = None,
        x_name: str = "x",
        y_name: str = "y",
    ) -> np.ndarray:
        x = self.check_vector("x", x)
        indptr, indices = self.block_pattern
        shape = (self._num_batch, self._num_rows)
        # The kernel adds into a zeroed buffer, so it may write into ``out``
        # only when ``out`` holds the product exactly and cannot alias x.
        direct = (
            out is not None
            and out.shape == shape
            and out.dtype == self._dtype
            and out.flags.c_contiguous
            and not np.may_share_memory(out, x)
        )
        if direct:
            y = out
            y.fill(0)
        else:
            y = np.zeros(shape, dtype=self._dtype)
        csr_matvec(shape[0] * shape[1], self._num_batch * self._num_cols,
                   indptr, indices, self.values, x, y)
        if ledger is not None:
            ledger.tally_spmv(
                self._num_batch,
                self._num_rows,
                self.nnz_per_item,
                index_bytes=self.pattern_bytes,
                mat_name="A",
                x_name=x_name,
                y_name=y_name,
            )
        if out is None or direct:
            return y
        out[...] = y
        return out

    def to_batch_dense(self) -> np.ndarray:
        dense = np.zeros(
            (self._num_batch, self._num_rows, self._num_cols), dtype=self.dtype
        )
        dense[:, self._row_of_nnz, self.col_idxs] = self.values
        return dense

    def diagonal(self) -> np.ndarray:
        n = min(self._num_rows, self._num_cols)
        diag = np.zeros((self._num_batch, n), dtype=self.dtype)
        present = self._diag_positions >= 0
        diag[:, present[:n]] = self.values[:, self._diag_positions[:n][present[:n]]]
        return diag

    def scaled_copy(self, factors: np.ndarray) -> "BatchCsr":
        factors = np.asarray(factors, dtype=np.float64)
        if factors.shape != (self._num_batch,):
            raise DimensionMismatchError(
                f"factors must have shape ({self._num_batch},), got {factors.shape}"
            )
        return BatchCsr(
            self.row_ptrs, self.col_idxs, self.values * factors[:, None], self._num_cols
        )

    @property
    def pattern_bytes(self) -> int:
        """Shared-pattern footprint: row pointers + column indices."""
        return _IDX_BYTES * (self._num_rows + 1) + _IDX_BYTES * self.nnz_per_item

    @property
    def storage_bytes(self) -> int:
        # Fig. 2: [num_matrices x nnz] values + [(rows+1)] ptrs + [nnz] cols.
        return self.value_bytes * self._num_batch * self.nnz_per_item + self.pattern_bytes

    def astype(self, dtype: np.dtype | type) -> "BatchCsr":
        """Copy in another precision format (values converted, pattern shared)."""
        return BatchCsr(
            self.row_ptrs, self.col_idxs, self.values, self._num_cols, dtype=dtype
        )

    def take_batch(self, selection: slice) -> "BatchCsr":
        """Sub-batch with the same shared pattern."""
        return BatchCsr(
            self.row_ptrs,
            self.col_idxs,
            self.values[selection],
            self._num_cols,
            dtype=self.dtype,
        )

    def transpose(self) -> "BatchCsr":
        """Batched transpose: one pattern transposition, values permuted.

        Because the pattern is shared, the CSR->CSC permutation is computed
        once and applied to every item's value row — the transpose costs a
        gather, no per-item symbolic work. Enables two-sided Krylov methods
        (e.g. BatchBicg) that apply both A and A^T.
        """
        order = np.lexsort((self._row_of_nnz, self.col_idxs))
        t_rows = self.col_idxs[order]          # rows of A^T
        t_cols = self._row_of_nnz[order]       # cols of A^T
        t_row_ptrs = np.zeros(self._num_cols + 1, dtype=np.int32)
        np.add.at(t_row_ptrs, t_rows + 1, 1)
        t_row_ptrs = np.cumsum(t_row_ptrs, dtype=np.int32)
        return BatchCsr(
            t_row_ptrs,
            t_cols.astype(np.int32),
            self.values[:, order],
            num_cols=self._num_rows,
            dtype=self.dtype,
        )

    # -- CSR-specific helpers -----------------------------------------------------------

    @property
    def block_pattern(self) -> tuple[np.ndarray, np.ndarray]:
        """``(indptr, indices)`` of the batch as one block-diagonal CSR matrix.

        Block k is item k: its column indices are the shared ones offset
        by ``k * num_cols``, and its values are row k of :attr:`values`,
        which the SpMV reads in place. Built on first use and kept. For
        one system the arrays are :attr:`row_ptrs` and :attr:`col_idxs`
        themselves; otherwise they are an nb-fold copy of the pattern
        (4 B per stored value), int32 unless the batch needs int64.
        """
        if self._block_pattern is None:
            nb, nnz = self.values.shape
            if nb == 1:
                self._block_pattern = (self.row_ptrs, self.col_idxs)
            else:
                largest = nb * max(nnz, self._num_rows, self._num_cols)
                index = np.int32 if largest <= np.iinfo(np.int32).max else np.int64
                offsets = np.arange(nb, dtype=index)[:, None]
                indptr = np.empty(nb * self._num_rows + 1, dtype=index)
                indptr[:-1] = (self.row_ptrs[:-1] + offsets * nnz).reshape(-1)
                indptr[-1] = nb * nnz
                indices = (self.col_idxs + offsets * self._num_cols).reshape(-1)
                self._block_pattern = (indptr, indices)
        return self._block_pattern

    @property
    def row_of_nnz(self) -> np.ndarray:
        """Row index of each stored entry (shared across the batch)."""
        return self._row_of_nnz

    @property
    def diag_positions(self) -> np.ndarray:
        """Value-array position of each row's diagonal entry, -1 if absent."""
        return self._diag_positions

    def item_scipy(self, index: int) -> sp.csr_matrix:
        """Batch item ``index`` as a scipy CSR matrix."""
        if not 0 <= index < self._num_batch:
            raise IndexError(f"batch index {index} outside [0, {self._num_batch})")
        return sp.csr_matrix(
            (self.values[index].copy(), self.col_idxs.copy(), self.row_ptrs.copy()),
            shape=(self._num_rows, self._num_cols),
        )

    def max_nnz_per_row(self) -> int:
        """Largest row length (the ELL width after conversion)."""
        return int(self._row_lengths.max())


def _validate_pattern(
    row_ptrs: np.ndarray, col_idxs: np.ndarray, nnz: int, num_cols: int
) -> None:
    if row_ptrs[0] != 0 or row_ptrs[-1] != nnz:
        raise BadSparsityPatternError(
            f"row_ptrs must span [0, nnz={nnz}], got ends "
            f"({row_ptrs[0]}, {row_ptrs[-1]})"
        )
    if np.any(np.diff(row_ptrs) < 0):
        raise BadSparsityPatternError("row_ptrs must be non-decreasing")
    if col_idxs.shape != (nnz,):
        raise BadSparsityPatternError(
            f"col_idxs must have shape ({nnz},), got {col_idxs.shape}"
        )
    if nnz and (col_idxs.min() < 0 or col_idxs.max() >= num_cols):
        raise BadSparsityPatternError(
            f"column indices outside [0, {num_cols}): "
            f"range [{col_idxs.min()}, {col_idxs.max()}]"
        )


def _sort_within_rows(row_of_nnz: np.ndarray, col_idxs: np.ndarray) -> np.ndarray | None:
    """Permutation that sorts column indices within each row, None if sorted.

    Raises when a row holds a column twice: after one stable sort by
    (row, column) duplicates are neighbours within a row.
    """
    same_row = row_of_nnz[1:] == row_of_nnz[:-1]
    if not np.any(same_row & (col_idxs[1:] <= col_idxs[:-1])):
        return None
    order = np.lexsort((col_idxs, row_of_nnz))
    cols = col_idxs[order]
    duplicates = np.flatnonzero(same_row & (cols[1:] == cols[:-1]))
    if duplicates.size:
        raise BadSparsityPatternError(
            f"row {row_of_nnz[duplicates[0]]} contains duplicate column indices"
        )
    return order
