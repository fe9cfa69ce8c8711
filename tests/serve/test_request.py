"""SolveRequest normalization, BatchKey compatibility, ticket semantics."""

import hashlib

import numpy as np
import pytest
import scipy.sparse as sp

from repro.exceptions import (
    BadSparsityPatternError,
    DimensionMismatchError,
    UnsupportedCombinationError,
)
from repro.serve import (
    ServeConfig,
    SolveRequest,
    SolverService,
    SolveTicket,
    assemble_batch,
)
from repro.serve.request import DONE, FAILED, PENDING, BatchKey, SolveOutcome


def _tridiag(n=6, scale=1.0):
    return sp.diags(
        [np.full(n - 1, -scale), np.full(n, 2.0 * scale), np.full(n - 1, -scale)],
        offsets=[-1, 0, 1],
        format="csr",
    )


class TestBatchKey:
    def test_same_pattern_and_config_share_a_key(self):
        r1 = SolveRequest(_tridiag(), np.ones(6), solver="cg")
        r2 = SolveRequest(_tridiag(scale=3.0), np.zeros(6), solver="cg")
        assert r1.batch_key == r2.batch_key  # values differ, pattern matches

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"solver": "bicgstab"},
            {"preconditioner": "jacobi"},
            {"tolerance": 1e-4},
            {"max_iterations": 7},
            {"precision": "single"},
        ],
    )
    def test_config_differences_split_keys(self, kwargs):
        base = SolveRequest(_tridiag(), np.ones(6), solver="cg")
        other = SolveRequest(_tridiag(), np.ones(6), **{"solver": "cg", **kwargs})
        assert base.batch_key != other.batch_key

    def test_pattern_differences_split_keys(self):
        dense_pattern = sp.csr_matrix(np.ones((6, 6)))
        r1 = SolveRequest(_tridiag(), np.ones(6))
        r2 = SolveRequest(dense_pattern, np.ones(6))
        assert r1.batch_key.pattern_token != r2.batch_key.pattern_token

    def test_dense_request_keys_on_shape(self):
        r = SolveRequest(np.eye(5), np.ones(5))
        assert r.matrix_format == "dense"
        assert r.batch_key.pattern_token == "dense:5"


def _reference_csr(a):
    """The full canonicalisation every CSR input got before canonical
    input was taken as is: copy, sort, prune, cast."""
    csr = a.tocsr() if sp.issparse(a) else sp.csr_matrix(np.asarray(a, dtype=np.float64))
    csr = csr.sorted_indices()
    csr.eliminate_zeros()
    return (
        csr.indptr.astype(np.int32),
        csr.indices.astype(np.int32),
        csr.data.astype(np.float64),
    )


def _triplet(data, indices, indptr, n=4, cls=sp.csr_matrix):
    return cls((np.asarray(data), np.asarray(indices), np.asarray(indptr)), shape=(n, n))


def _stale_sorted_flag():
    a = _tridiag(4)
    assert a.has_sorted_indices  # computed and cached
    a.indices[[0, 1]] = a.indices[[1, 0]]  # scrambled in place; the cache says sorted
    assert a.has_sorted_indices
    return a


def _storage_past_nnz():
    a = _tridiag(4)  # then two entries past indptr[-1] that read as sorted
    a.indices = np.concatenate([a.indices, [3, 3]]).astype(a.indices.dtype)
    a.data = np.concatenate([a.data, [9.0, 9.0]])
    return a


_PTRS = [0, 2, 4, 6, 8]
_INGEST_CASES = {
    "canonical": lambda: _tridiag(6),
    "unsorted_rows": lambda: _triplet(
        [2.0, -1.0, 4.0, -1.0, 3.0, 1.0, 5.0, -2.0], [1, 0, 2, 1, 3, 2, 3, 1], _PTRS
    ),
    "explicit_zeros": lambda: _triplet(
        [2.0, 0.0, 4.0, -1.0, 3.0, 0.0, 5.0, 1.0], [0, 1, 1, 2, 2, 3, 1, 3], _PTRS
    ),
    "negative_zero": lambda: _triplet(
        [2.0, -0.0, 4.0, -1.0, 3.0, 1.0, 5.0, 1.0], [0, 1, 1, 2, 2, 3, 1, 3], _PTRS
    ),
    "nan_values": lambda: _triplet(
        [2.0, np.nan, 4.0, -1.0, 3.0, 1.0, 5.0, 1.0], [0, 1, 1, 2, 2, 3, 1, 3], _PTRS
    ),
    "duplicates_sorted": lambda: _triplet(
        [2.0, 1.0, 4.0, -1.0, 3.0, 1.0, 5.0, 1.0], [0, 0, 1, 2, 2, 3, 3, 3], _PTRS
    ),
    "duplicates_unsorted": lambda: _triplet(
        [2.0, 1.0, 4.0, -1.0, 3.0, 1.0, 5.0, 7.0], [1, 0, 2, 1, 3, 2, 3, 3], _PTRS
    ),
    "empty_rows": lambda: _triplet([2.0, 1.0, 3.0], [0, 2, 2], [0, 0, 2, 3, 3]),
    "int64_indices": lambda: _triplet(
        [2.0, -1.0, 4.0, -1.0, 3.0, 1.0, 5.0, 1.0],
        np.array([0, 1, 1, 2, 2, 3, 1, 3], dtype=np.int64),
        np.array(_PTRS, dtype=np.int64),
    ),
    "float32_data": lambda: _tridiag(5).astype(np.float32),
    "int_data": lambda: _triplet(
        np.array([2, -1, 4, 1, 3, 1, 5, 1]), [0, 1, 1, 2, 2, 3, 1, 3], _PTRS
    ),
    "csr_array": lambda: sp.csr_array(_tridiag(5)),
    "coo": lambda: sp.coo_matrix(
        ([1.0, 2.0, 3.0, 4.0, 0.0, 5.0], ([2, 0, 1, 2, 1, 0], [2, 0, 1, 0, 0, 0])), shape=(3, 3)
    ),
    "dense": lambda: np.array([[4.0, 0.0, 1.0], [0.0, 3.0, 0.0], [-0.0, 2.0, 5.0]]),
    "stale_sorted_flag": _stale_sorted_flag,
    "storage_past_nnz": _storage_past_nnz,
}


class TestIngest:
    @pytest.mark.parametrize("case", sorted(_INGEST_CASES))
    def test_same_pattern_values_and_key_as_full_canonicalisation(self, case):
        a = _INGEST_CASES[case]()
        row_ptrs, col_idxs, values = _reference_csr(a)
        n = len(row_ptrs) - 1
        request = SolveRequest(a, np.ones(n), matrix_format="csr", solver="cg")
        for got, want in zip(
            (request.row_ptrs, request.col_idxs, request.values), (row_ptrs, col_idxs, values)
        ):
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()
        digest = hashlib.sha1(row_ptrs.tobytes())
        digest.update(col_idxs.tobytes())
        assert request.batch_key == BatchKey(
            matrix_format="csr",
            num_rows=n,
            pattern_token=digest.hexdigest()[:16],
            solver="cg",
            preconditioner="identity",
            criterion="relative",
            precision="double",
            tolerance=1e-8,
            max_iterations=500,
        )

    def test_request_owns_its_arrays(self):
        a = _tridiag(6)
        request = SolveRequest(a, np.ones(6))
        kept = [arr.copy() for arr in (request.row_ptrs, request.col_idxs, request.values)]
        a.data[:] = 7.0
        a.indices[:] = 0
        a.indptr[:] = 0
        got = (request.row_ptrs, request.col_idxs, request.values)
        assert all(np.array_equal(g, k) for g, k in zip(got, kept))
        assert all(arr.flags.owndata for arr in got)

    def test_request_copies_the_callers_float64_dense_b_and_x0(self):
        # already float64 and C-contiguous, so a request that kept them
        # would change when the caller reuses its buffers after submit
        rng = np.random.default_rng(4)
        n = 8
        a = np.diag(np.full(n, 4.0)) + rng.uniform(-0.5, 0.5, (n, n))
        b = rng.standard_normal(n)
        x0 = rng.standard_normal(n)
        expected = np.linalg.solve(a, b)
        request = SolveRequest(a, b, x0=x0)
        kept = [request.dense.copy(), request.b.copy(), request.x0.copy()]
        config = ServeConfig(max_batch_size=64, max_wait_ms=60_000.0, num_workers=1)
        with SolverService(config) as service:
            ticket = service.submit(request)
            a[:] = 0.0
            b[:] = 1.0
            x0[:] = np.nan
            service.flush()
            outcome = ticket.result(timeout=30.0)
        got = (request.dense, request.b, request.x0)
        assert all(np.array_equal(g, k) for g, k in zip(got, kept))
        assert outcome.converged
        np.testing.assert_allclose(outcome.x, expected, rtol=1e-6)


class TestValidation:
    def test_unknown_names_rejected(self):
        with pytest.raises(UnsupportedCombinationError):
            SolveRequest(np.eye(3), np.ones(3), solver="nope")
        with pytest.raises(UnsupportedCombinationError):
            SolveRequest(np.eye(3), np.ones(3), preconditioner="nope")
        with pytest.raises(UnsupportedCombinationError):
            SolveRequest(np.eye(3), np.ones(3), criterion="nope")
        with pytest.raises(UnsupportedCombinationError):
            SolveRequest(np.eye(3), np.ones(3), precision="nope")
        with pytest.raises(UnsupportedCombinationError):
            SolveRequest(np.eye(3), np.ones(3), matrix_format="nope")

    def test_shape_mismatches_rejected(self):
        with pytest.raises(DimensionMismatchError):
            SolveRequest(np.eye(3), np.ones(4))
        with pytest.raises(DimensionMismatchError):
            SolveRequest(np.ones((3, 4)), np.ones(3))
        with pytest.raises(DimensionMismatchError):
            SolveRequest(np.eye(3), np.ones(3), x0=np.ones(4))

    def test_empty_sparse_matrix_rejected(self):
        with pytest.raises(BadSparsityPatternError):
            SolveRequest(sp.csr_matrix((4, 4)), np.ones(4))


class TestAssembleBatch:
    def test_values_and_rhs_stack_in_order(self):
        requests = [
            SolveRequest(_tridiag(scale=s), np.full(6, s), solver="cg")
            for s in (1.0, 2.0, 3.0)
        ]
        matrix, b, x0 = assemble_batch(requests)
        assert matrix.num_batch == 3
        assert b.shape == (3, 6)
        assert x0 is None
        np.testing.assert_allclose(b[2], np.full(6, 3.0))
        np.testing.assert_allclose(matrix.values[1], requests[1].values)

    def test_partial_x0_zero_fills(self):
        with_guess = SolveRequest(_tridiag(), np.ones(6), x0=np.full(6, 7.0))
        without = SolveRequest(_tridiag(), np.ones(6))
        _matrix, _b, x0 = assemble_batch([with_guess, without])
        np.testing.assert_allclose(x0[0], 7.0)
        np.testing.assert_allclose(x0[1], 0.0)

    def test_pattern_mismatch_caught_even_past_digests(self):
        # assemble_batch re-verifies patterns against request 0, so a
        # hypothetical digest collision cannot silently stack mismatched
        # patterns.
        r1 = SolveRequest(_tridiag(), np.ones(6))
        r2 = SolveRequest(sp.csr_matrix(np.eye(6)), np.ones(6))
        with pytest.raises(BadSparsityPatternError):
            assemble_batch([r1, r2])

    @pytest.mark.parametrize(
        "odd",
        [
            lambda: _tridiag() + sp.eye(6, k=3, format="csr"),  # more entries
            lambda: _triplet(  # same nnz, moved entries
                np.ones(16), [0, 1, 0, 1, 3, 2, 3, 4, 3, 4, 5, 4, 5, 2, 4, 5],
                [0, 2, 5, 8, 11, 14, 16], n=6,
            ),
            lambda: _tridiag(7),  # another size
            lambda: np.eye(6),  # dense
        ],
        ids=["more_entries", "moved_entries", "other_size", "dense"],
    )
    @pytest.mark.parametrize("at", [1, 3])
    def test_error_names_the_first_mismatching_request(self, odd, at):
        requests = [SolveRequest(_tridiag(), np.ones(6)) for _ in range(5)]
        a = odd()
        requests[at] = SolveRequest(a, np.ones(a.shape[0]))
        requests[4] = SolveRequest(sp.csr_matrix(np.eye(6)), np.ones(6))  # a later mismatch
        with pytest.raises(BadSparsityPatternError, match=f"request {at} does not share"):
            assemble_batch(requests)

    def test_dense_requests_assemble_to_batch_dense(self):
        requests = [SolveRequest(np.eye(4) * s, np.ones(4)) for s in (1.0, 2.0)]
        matrix, _b, _x0 = assemble_batch(requests)
        assert matrix.num_batch == 2

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            assemble_batch([])


class TestSolveTicket:
    def _outcome(self):
        return SolveOutcome(
            x=np.zeros(3),
            iterations=1,
            residual_norm=0.0,
            converged=True,
            solver_name="cg",
            used_fallback=False,
            batch_size=1,
            queue_wait_ms=0.0,
            solve_ms=0.0,
            worker="dev",
            plan_cache_hit=False,
        )

    def test_complete_delivers_outcome(self):
        ticket = SolveTicket(SolveRequest(np.eye(3), np.ones(3)), submitted_ns=0)
        assert ticket.status == PENDING and not ticket.done()
        ticket._complete(self._outcome())
        assert ticket.done() and ticket.status == DONE
        assert ticket.result(timeout=0.1).converged
        assert ticket.exception(timeout=0.1) is None

    def test_fail_raises_from_result(self):
        ticket = SolveTicket(SolveRequest(np.eye(3), np.ones(3)), submitted_ns=0)
        ticket._fail(RuntimeError("boom"))
        assert ticket.status == FAILED
        with pytest.raises(RuntimeError, match="boom"):
            ticket.result(timeout=0.1)

    def test_result_times_out_while_pending(self):
        ticket = SolveTicket(SolveRequest(np.eye(3), np.ones(3)), submitted_ns=0)
        with pytest.raises(TimeoutError):
            ticket.result(timeout=0.01)

    def test_expiry_and_queue_wait(self):
        ticket = SolveTicket(
            SolveRequest(np.eye(3), np.ones(3)), submitted_ns=100, deadline_ns=200
        )
        assert not ticket.expired(150)
        assert ticket.expired(201)
        assert ticket.queue_wait_ns is None
        ticket.flushed_ns = 180
        assert ticket.queue_wait_ns == 80
