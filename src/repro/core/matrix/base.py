"""Abstract interface of batched matrices.

Every batched format stores ``num_batch`` matrices of identical shape and —
for the sparse formats — an identical sparsity pattern, stored once
(Section 3.1 of the paper). The solvers only use this interface, which is
what lets the multi-level dispatch mechanism combine any format with any
solver (Figure 3).
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.core.counters import TrafficLedger
from repro.exceptions import DimensionMismatchError
from repro.utils.validation import ensure_2d_batch



def as_float_values(values, dtype):
    """Normalize a value array: keep float32/float64 inputs, default float64."""
    values = np.asarray(values)
    if dtype is not None:
        return values.astype(dtype, copy=False)
    if values.dtype.kind == "f" and values.dtype.itemsize in (4, 8):
        return values
    return values.astype(np.float64, copy=False)


class BatchedMatrix(ABC):
    """A batch of equally-sized linear operators A_1 ... A_n."""

    #: Short format tag used by dispatch tables ("dense", "csr", "ell").
    format_name: str = "abstract"

    def __init__(
        self,
        num_batch: int,
        num_rows: int,
        num_cols: int,
        dtype: np.dtype | type = np.float64,
    ) -> None:
        if num_batch <= 0 or num_rows <= 0 or num_cols <= 0:
            raise DimensionMismatchError(
                f"batched matrix dimensions must be positive, got "
                f"({num_batch}, {num_rows}, {num_cols})"
            )
        dtype = np.dtype(dtype)
        if dtype.kind != "f":
            raise ValueError(
                f"batched matrices hold floating values, got dtype {dtype}"
            )
        self._num_batch = int(num_batch)
        self._num_rows = int(num_rows)
        self._num_cols = int(num_cols)
        self._dtype = dtype

    # -- shape ----------------------------------------------------------------

    @property
    def num_batch(self) -> int:
        """Number of systems in the batch."""
        return self._num_batch

    @property
    def num_rows(self) -> int:
        """Rows of each batch item."""
        return self._num_rows

    @property
    def num_cols(self) -> int:
        """Columns of each batch item."""
        return self._num_cols

    @property
    def shape(self) -> tuple[int, int, int]:
        """``(num_batch, num_rows, num_cols)``."""
        return (self._num_batch, self._num_rows, self._num_cols)

    @property
    def dtype(self) -> np.dtype:
        """Floating dtype of the stored values (the precision format)."""
        return self._dtype

    @property
    def value_bytes(self) -> int:
        """Bytes per stored value (8 for FP64, 4 for FP32)."""
        return self._dtype.itemsize

    # -- required functionality -------------------------------------------------

    @property
    @abstractmethod
    def nnz_per_item(self) -> int:
        """Stored non-zeros per batch item (including explicit zeros)."""

    @abstractmethod
    def apply(
        self,
        x: np.ndarray,
        out: np.ndarray | None = None,
        ledger: TrafficLedger | None = None,
        x_name: str = "x",
        y_name: str = "y",
    ) -> np.ndarray:
        """Batched matrix-vector product ``y_i = A_i x_i``.

        ``x`` has shape ``(num_batch, num_cols)`` (or ``(num_cols,)``,
        broadcast). Traffic is tallied into ``ledger`` when provided.
        """

    @abstractmethod
    def to_batch_dense(self) -> np.ndarray:
        """Densify to an ``(num_batch, rows, cols)`` array."""

    @abstractmethod
    def diagonal(self) -> np.ndarray:
        """Extract the main diagonals, shape ``(num_batch, min(rows, cols))``."""

    @abstractmethod
    def scaled_copy(self, factors: np.ndarray) -> "BatchedMatrix":
        """Return a new batched matrix with item ``i`` scaled by ``factors[i]``."""

    @abstractmethod
    def astype(self, dtype: np.dtype | type) -> "BatchedMatrix":
        """Return a copy in another precision format (dispatch level 1)."""

    @abstractmethod
    def take_batch(self, selection: slice) -> "BatchedMatrix":
        """A sub-batch view-copy: items ``selection``, same shared pattern.

        This is the "trivial distribution over MPI ranks" primitive of the
        paper's multi-GPU outlook (Section 4.2): partitioning a batch
        requires no pattern rewriting and no communication.
        """

    @property
    @abstractmethod
    def storage_bytes(self) -> int:
        """Total storage per the paper's Fig. 2 formulas (FP64 values, int32 pattern)."""

    # -- provided helpers ---------------------------------------------------------

    def item_dense(self, index: int) -> np.ndarray:
        """Dense copy of batch item ``index`` (useful for reference solves)."""
        if not 0 <= index < self._num_batch:
            raise IndexError(
                f"batch index {index} outside [0, {self._num_batch})"
            )
        return self.to_batch_dense()[index]

    def check_vector(self, name: str, x: np.ndarray, length: int | None = None) -> np.ndarray:
        """Validate a batched vector operand against this matrix."""
        if (
            type(x) is np.ndarray
            and x.dtype is self._dtype
            and x.shape == (self._num_batch, self._num_cols if length is None else length)
            and x.flags.c_contiguous
        ):
            return x  # what ensure_2d_batch returns for it, without the calls
        return ensure_2d_batch(
            name,
            x,
            self._num_batch,
            self._num_cols if length is None else length,
            dtype=self._dtype,
        )

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(num_batch={self._num_batch}, "
            f"num_rows={self._num_rows}, num_cols={self._num_cols}, "
            f"nnz_per_item={self.nnz_per_item})"
        )
