"""BatchCsr: construction, validation, SpMV, diagonal, storage formula."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from repro.core.counters import TrafficLedger
from repro.core.matrix import BatchCsr
from repro.exceptions import BadSparsityPatternError, DimensionMismatchError
from repro.workloads.pele import pele_batch


def _small_batch():
    # 2x: [[2, -1, 0], [0, 3, 1], [-1, 0, 4]] with per-item scaling
    row_ptrs = np.array([0, 2, 4, 6], dtype=np.int32)
    col_idxs = np.array([0, 1, 1, 2, 0, 2], dtype=np.int32)
    values = np.array(
        [[2.0, -1.0, 3.0, 1.0, -1.0, 4.0], [4.0, -2.0, 6.0, 2.0, -2.0, 8.0]]
    )
    return BatchCsr(row_ptrs, col_idxs, values)


class TestConstruction:
    def test_shape_and_nnz(self):
        m = _small_batch()
        assert m.shape == (2, 3, 3)
        assert m.nnz_per_item == 6
        assert m.format_name == "csr"

    def test_columns_are_normalized_sorted(self):
        # give row 0 columns out of order; values must follow the permutation
        m = BatchCsr(
            np.array([0, 2]), np.array([1, 0]), np.array([[10.0, 20.0]]), num_cols=2
        )
        assert list(m.col_idxs) == [0, 1]
        assert list(m.values[0]) == [20.0, 10.0]

    def test_bad_row_ptrs_rejected(self):
        with pytest.raises(BadSparsityPatternError):
            BatchCsr(np.array([1, 2]), np.array([0]), np.ones((1, 1)))

    def test_decreasing_row_ptrs_rejected(self):
        with pytest.raises(BadSparsityPatternError):
            BatchCsr(np.array([0, 2, 1, 3]), np.arange(3), np.ones((1, 3)), num_cols=3)

    def test_out_of_range_column_rejected(self):
        with pytest.raises(BadSparsityPatternError):
            BatchCsr(np.array([0, 1]), np.array([5]), np.ones((1, 1)), num_cols=3)

    def test_duplicate_column_in_row_rejected(self):
        with pytest.raises(BadSparsityPatternError):
            BatchCsr(np.array([0, 2]), np.array([1, 1]), np.ones((1, 2)), num_cols=3)

    def test_duplicate_error_names_first_bad_row(self):
        # rows 1 and 3 repeat a column; row 1 is also unsorted, so the
        # duplicate shows only after the sort
        row_ptrs = np.array([0, 1, 4, 5, 7])
        cols = np.array([0, 2, 0, 2, 1, 3, 3])
        with pytest.raises(BadSparsityPatternError, match="row 1 "):
            BatchCsr(row_ptrs, cols, np.ones((1, 7)), num_cols=4)

    def test_diagonal_positions_follow_the_sort(self):
        # rows [1, 0], [2, 1] and an empty row sort to [0, 1], [1, 2], []
        m = BatchCsr(np.array([0, 2, 4, 4]), np.array([1, 0, 2, 1]), np.ones((1, 4)))
        assert list(m.diag_positions) == [0, 2, -1]

    def test_values_must_be_2d(self):
        with pytest.raises(DimensionMismatchError):
            BatchCsr(np.array([0, 1]), np.array([0]), np.ones(1))


class TestMemoryContract:
    def test_sorted_input_is_kept(self):
        values = np.arange(12.0).reshape(2, 6)
        m = BatchCsr(np.array([0, 2, 4, 6]), np.array([0, 1, 1, 2, 0, 2]), values)
        assert np.shares_memory(m.values, values)

    def test_unsorted_input_is_copied_and_permuted(self):
        values = np.array([[10.0, 20.0, 30.0]])
        m = BatchCsr(np.array([0, 2, 3]), np.array([1, 0, 1]), values, num_cols=2)
        assert not np.shares_memory(m.values, values)
        assert list(m.col_idxs) == [0, 1, 1]
        assert list(m.values[0]) == [20.0, 10.0, 30.0]

    def test_block_operator_data_is_a_view_of_values(self):
        m = _small_batch()
        op = m.block_operator
        assert op is m.block_operator  # built once, kept
        assert op.shape == (2 * 3, 2 * 3)
        assert op.indices.dtype == np.int32
        assert np.shares_memory(op.data, m.values)


class TestFromDense:
    def test_union_pattern_shared(self):
        batch = np.zeros((2, 2, 2))
        batch[0, 0, 0] = 1.0
        batch[1, 1, 1] = 2.0
        m = BatchCsr.from_dense(batch)
        # union pattern has both entries; missing ones stored as explicit 0
        assert m.nnz_per_item == 2
        assert np.allclose(m.to_batch_dense(), batch)

    def test_first_pattern_drops_other_entries(self):
        batch = np.zeros((2, 2, 2))
        batch[0, 0, 0] = 1.0
        batch[1, 1, 1] = 2.0
        m = BatchCsr.from_dense(batch, keep_pattern_of="first")
        assert m.nnz_per_item == 1
        assert m.to_batch_dense()[1, 1, 1] == 0.0

    def test_all_zero_batch_keeps_diagonal(self):
        m = BatchCsr.from_dense(np.zeros((1, 3, 3)))
        assert m.nnz_per_item == 3
        assert np.all(m.diagonal() == 0.0)


class TestFromScipy:
    def test_round_trip(self):
        a = sp.random(6, 6, density=0.4, random_state=0, format="csr")
        a.setdiag(5.0)
        b = a.copy()
        b.data = b.data * 2.0
        m = BatchCsr.from_scipy_batch([a, b])
        assert m.num_batch == 2
        assert np.allclose(m.item_scipy(0).toarray(), a.toarray())
        assert np.allclose(m.item_scipy(1).toarray(), b.toarray())

    def test_mismatched_patterns_rejected(self):
        a = sp.eye(4, format="csr")
        b = sp.csr_matrix(np.triu(np.ones((4, 4))))
        with pytest.raises(BadSparsityPatternError, match="share"):
            BatchCsr.from_scipy_batch([a, b])

    def test_empty_list_rejected(self):
        with pytest.raises(DimensionMismatchError):
            BatchCsr.from_scipy_batch([])


class TestSpMV:
    def test_matches_dense_reference(self):
        m = _small_batch()
        x = np.array([[1.0, 2.0, 3.0], [1.0, 1.0, 1.0]])
        expected = np.einsum("bij,bj->bi", m.to_batch_dense(), x)
        assert np.allclose(m.apply(x), expected)

    def test_broadcast_1d_input(self):
        m = _small_batch()
        x = np.array([1.0, 2.0, 3.0])
        y = m.apply(x)
        expected = np.einsum("bij,j->bi", m.to_batch_dense(), x)
        assert np.allclose(y, expected)

    def test_out_parameter(self):
        m = _small_batch()
        x = np.ones((2, 3))
        out = np.empty((2, 3))
        y = m.apply(x, out=out)
        assert y is out

    def test_empty_rows_handled(self):
        # row 1 has no entries
        m = BatchCsr(
            np.array([0, 1, 1, 2]),
            np.array([0, 2]),
            np.array([[3.0, 5.0]]),
            num_cols=3,
        )
        y = m.apply(np.array([[1.0, 1.0, 1.0]]))
        assert list(y[0]) == [3.0, 0.0, 5.0]

    def test_ledger_tally(self):
        m = _small_batch()
        ledger = TrafficLedger()
        m.apply(np.ones((2, 3)), ledger=ledger, x_name="p", y_name="t")
        assert ledger.flops == 2 * 2 * 6
        assert ledger.calls["spmv"] == 2
        assert "A_values" in ledger.bytes_by_object
        assert "A_pattern" in ledger.bytes_by_object
        assert ledger.bytes_by_object["p"] == 8.0 * 2 * 6

    def test_wrong_shape_rejected(self):
        with pytest.raises(DimensionMismatchError):
            _small_batch().apply(np.ones((2, 4)))

    def test_rows_sum_sequentially_in_stored_order(self):
        # the order of the spmv_csr_item_rows kernel, bit for bit
        m = pele_batch("isooctane")
        x = np.random.default_rng(7).standard_normal((m.num_batch, m.num_cols))
        expected = np.zeros((m.num_batch, m.num_rows))
        for row in range(m.num_rows):
            for pos in range(m.row_ptrs[row], m.row_ptrs[row + 1]):
                expected[:, row] += m.values[:, pos] * x[:, m.col_idxs[pos]]
        assert np.array_equal(m.apply(x), expected)


class TestDerivedAfterApply:
    """Matrices derived from one whose block operator exists build their own."""

    @pytest.fixture
    def parent(self):
        # non-square on purpose: block k's columns start at k * num_cols
        rng = np.random.default_rng(11)
        dense = rng.standard_normal((4, 6, 5)) * (rng.random((6, 5)) < 0.6)
        m = BatchCsr.from_dense(dense)
        m.apply(rng.standard_normal((4, 5)))
        return m, dense

    @staticmethod
    def _check(m, dense, tol=1e-12):
        x = np.random.default_rng(5).standard_normal((m.num_batch, m.num_cols))
        expected = np.einsum("bij,bj->bi", dense, x)
        assert np.allclose(m.apply(x), expected, rtol=tol, atol=tol)

    def test_parent(self, parent):
        m, dense = parent
        self._check(m, dense)

    def test_take_batch(self, parent):
        m, dense = parent
        self._check(m.take_batch(slice(1, 3)), dense[1:3])

    def test_astype(self, parent):
        m, dense = parent
        single = m.astype(np.float32)
        assert single.apply(np.ones((4, 5))).dtype == np.float32
        self._check(single, dense, tol=1e-5)

    def test_scaled_copy(self, parent):
        m, dense = parent
        factors = np.array([1.0, -2.0, 0.5, 3.0])
        self._check(m.scaled_copy(factors), dense * factors[:, None, None])

    def test_transpose(self, parent):
        m, dense = parent
        self._check(m.transpose(), dense.transpose(0, 2, 1))


class TestDiagonalAndScaling:
    def test_diagonal_extraction(self):
        m = _small_batch()
        assert np.allclose(m.diagonal(), [[2.0, 3.0, 4.0], [4.0, 6.0, 8.0]])

    def test_diagonal_missing_entry_is_zero(self):
        m = BatchCsr(np.array([0, 1, 2]), np.array([1, 0]), np.ones((1, 2)), num_cols=2)
        assert np.all(m.diagonal() == 0.0)

    def test_scaled_copy(self):
        m = _small_batch()
        scaled = m.scaled_copy(np.array([2.0, 0.5]))
        assert np.allclose(scaled.values[0], 2.0 * m.values[0])
        assert np.allclose(scaled.values[1], 0.5 * m.values[1])

    def test_scaled_copy_shape_checked(self):
        with pytest.raises(DimensionMismatchError):
            _small_batch().scaled_copy(np.ones(3))


class TestStorageFormula:
    def test_matches_fig2(self):
        m = _small_batch()
        # [nb x nnz] fp64 + [(rows+1) + nnz] int32
        expected = 8 * 2 * 6 + 4 * (3 + 1) + 4 * 6
        assert m.storage_bytes == expected

    def test_pattern_amortized_across_batch(self):
        one = _small_batch()
        row_ptrs, cols = one.row_ptrs, one.col_idxs
        big = BatchCsr(row_ptrs, cols, np.ones((100, 6)))
        assert big.storage_bytes - 100 * 8 * 6 == one.storage_bytes - 2 * 8 * 6


@settings(max_examples=25, deadline=None)
@given(
    nb=st.integers(1, 4),
    n=st.integers(1, 10),
    density=st.floats(0.1, 0.9),
    seed=st.integers(0, 1000),
)
def test_dense_round_trip_property(nb, n, density, seed):
    rng = np.random.default_rng(seed)
    batch = rng.standard_normal((nb, n, n)) * (rng.random((n, n)) < density)
    m = BatchCsr.from_dense(batch)
    assert np.allclose(m.to_batch_dense(), batch)


@settings(max_examples=25, deadline=None)
@given(
    nb=st.integers(1, 4),
    n=st.integers(2, 10),
    density=st.floats(0.2, 0.9),
    seed=st.integers(0, 1000),
)
def test_spmv_matches_dense_property(nb, n, density, seed):
    rng = np.random.default_rng(seed)
    batch = rng.standard_normal((nb, n, n)) * (rng.random((n, n)) < density)
    m = BatchCsr.from_dense(batch)
    x = rng.standard_normal((nb, n))
    assert np.allclose(m.apply(x), np.einsum("bij,bj->bi", batch, x))
