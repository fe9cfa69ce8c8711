"""Workload generators: the 3-pt stencil and the Pele surrogates (Table 4)."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.core.matrix import BatchCsr, BatchEll
from repro.workloads.general import (
    random_diag_dominant_batch,
    random_spd_batch,
    random_triangular_batch,
)
from repro.workloads.pele import MECHANISMS, pele_batch, pele_rhs, table4_rows
from repro.workloads.stencil import stencil_rhs, three_point_stencil


class TestStencil:
    def test_nnz_is_3n(self):
        for n in (3, 8, 64, 100):
            m = three_point_stencil(n, 2)
            assert m.nnz_per_item == 3 * n

    def test_spd(self):
        m = three_point_stencil(16, 4)
        dense = m.to_batch_dense()
        assert np.allclose(dense, dense.transpose(0, 2, 1))
        eigs = np.linalg.eigvalsh(dense)
        assert np.all(eigs > 0)

    def test_tridiagonal_structure(self):
        dense = three_point_stencil(10, 1).to_batch_dense()[0]
        assert np.allclose(np.triu(dense, k=2), 0.0)
        assert np.allclose(np.tril(dense, k=-2), 0.0)
        off = np.diag(dense, k=1)
        assert np.all(off == -1.0)

    def test_jitter_makes_items_distinct(self):
        m = three_point_stencil(8, 4, jitter=0.1, seed=1)
        diags = m.diagonal()
        assert not np.allclose(diags[0], diags[1])

    def test_zero_jitter_replicates(self):
        m = three_point_stencil(8, 4, jitter=0.0)
        assert np.allclose(m.values[0], m.values[3])

    def test_ell_format_agrees_with_csr(self):
        csr = three_point_stencil(12, 3, fmt="csr")
        ell = three_point_stencil(12, 3, fmt="ell")
        assert isinstance(csr, BatchCsr)
        assert isinstance(ell, BatchEll)
        assert np.allclose(csr.to_batch_dense(), ell.to_batch_dense())

    def test_minimum_size_enforced(self):
        with pytest.raises(ValueError):
            three_point_stencil(2, 1)

    def test_rhs_shape(self):
        assert stencil_rhs(16, 5).shape == (5, 16)

    @settings(max_examples=15, deadline=None)
    @given(n=st.integers(3, 40), nb=st.integers(1, 6), seed=st.integers(0, 99))
    def test_spd_property(self, n, nb, seed):
        m = three_point_stencil(n, nb, seed=seed)
        dense = m.to_batch_dense()
        assert np.all(np.linalg.eigvalsh(dense) > -1e-12)
        assert m.nnz_per_item == 3 * n


class TestPeleSurrogates:
    @pytest.mark.parametrize("name", sorted(MECHANISMS))
    def test_table4_exact_match(self, name):
        mech = MECHANISMS[name]
        m = pele_batch(name)
        assert m.num_rows == mech.num_rows
        assert m.num_cols == mech.num_rows
        assert m.nnz_per_item == mech.nnz
        assert m.num_batch == mech.num_unique

    @pytest.mark.parametrize("name", sorted(MECHANISMS))
    def test_non_spd_but_diagonally_dominant(self, name):
        m = pele_batch(name)
        dense = m.to_batch_dense()
        # nonsymmetric values (why only BatchBicgstab applies - Sec 4.3)
        assert not np.allclose(dense, dense.transpose(0, 2, 1))
        diag = np.abs(m.diagonal())
        off = np.abs(dense).sum(axis=2) - diag
        assert np.all(diag > off)

    def test_replication_emulates_larger_mesh(self):
        m = pele_batch("drm19", num_batch=200)
        assert m.num_batch == 200
        # replicated values cycle through the unique set
        assert np.allclose(m.values[0], m.values[67])

    def test_pattern_deterministic_per_mechanism(self):
        a = pele_batch("gri12", seed=0)
        b = pele_batch("gri12", seed=0)
        assert np.array_equal(a.col_idxs, b.col_idxs)
        assert np.allclose(a.values, b.values)

    def test_batch_identical_across_hash_seeds(self, tmp_path):
        """str hashes are salted per process; the mechanism batch must not be."""
        code = (
            "import sys, numpy as np; from repro.workloads.pele import pele_batch; "
            "m = pele_batch('drm19'); "
            "np.savez(sys.argv[1], row_ptrs=m.row_ptrs, col_idxs=m.col_idxs, values=m.values)"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(repro.__file__).resolve().parents[1])}
        runs = []
        for hash_seed in ("1", "2"):
            out = tmp_path / f"drm19-{hash_seed}.npz"
            subprocess.run(
                [sys.executable, "-c", code, str(out)],
                env={**env, "PYTHONHASHSEED": hash_seed},
                check=True,
                timeout=120,
            )
            runs.append(np.load(out))
        for key in ("row_ptrs", "col_idxs", "values"):
            assert np.array_equal(runs[0][key], runs[1][key]), key

    def test_unknown_mechanism_rejected(self):
        with pytest.raises(KeyError):
            pele_batch("methane99")

    def test_gamma_validated(self):
        with pytest.raises(ValueError):
            pele_batch("drm19", gamma=1.5)

    def test_ell_format(self):
        m = pele_batch("drm19", fmt="ell")
        assert isinstance(m, BatchEll)
        assert m.num_rows == 22

    def test_rhs_positive_and_shaped(self):
        m = pele_batch("drm19")
        b = pele_rhs(m)
        assert b.shape == (67, 22)
        assert np.all(b > 0)

    def test_table4_rows_structure(self):
        rows = table4_rows()
        assert rows[0]["input"] == "3pt stencil"
        assert rows[0]["nnz_per_matrix"] == "3 x n_rows"
        names = [r["input"] for r in rows[1:]]
        assert names == ["drm19", "gri12", "gri30", "dodecane_lu", "isooctane"]


class TestGeneralGenerators:
    def test_diag_dominant_property(self):
        m = random_diag_dominant_batch(4, 10, seed=0)
        dense = m.to_batch_dense()
        diag = np.abs(m.diagonal())
        off = np.abs(dense).sum(axis=2) - diag
        assert np.all(diag > off)

    def test_spd_generator(self):
        m = random_spd_batch(3, 8, seed=1)
        dense = m.to_batch_dense()
        assert np.allclose(dense, dense.transpose(0, 2, 1))
        assert np.all(np.linalg.eigvalsh(dense) > 0)

    def test_triangular_generators(self):
        lower = random_triangular_batch(2, 8, uplo="lower", seed=2)
        upper = random_triangular_batch(2, 8, uplo="upper", seed=2)
        assert np.allclose(np.triu(lower.to_batch_dense(), k=1), 0.0)
        assert np.allclose(np.tril(upper.to_batch_dense(), k=-1), 0.0)

    def test_shared_pattern_across_batch(self):
        m = random_diag_dominant_batch(6, 12, seed=3)
        # one pattern, many value sets — the defining batched property
        assert m.values.shape == (6, m.nnz_per_item)

    def test_bad_parameters_rejected(self):
        with pytest.raises(ValueError):
            random_diag_dominant_batch(2, 4, dominance=0.5)
        with pytest.raises(ValueError):
            random_triangular_batch(2, 4, uplo="diag")
