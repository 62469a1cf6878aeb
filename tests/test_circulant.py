"""Tests for the circulant preconditioners."""

import numpy as np
import pytest

from repro.baselines import (
    circulant_pcg,
    strang_preconditioner,
    tchan_preconditioner,
)
from repro.baselines.pcg import pcg, pcg_block
from repro.errors import ShapeError
from repro.toeplitz import ar_block_toeplitz, fgn_toeplitz, kms_toeplitz


class TestPreconditionerOperators:
    def test_matvec_matches_dense(self, rng):
        pre = strang_preconditioner(kms_toeplitz(32, 0.6))
        x = rng.standard_normal(32)
        np.testing.assert_allclose(pre.matvec(x), pre.dense() @ x,
                                   atol=1e-12)

    def test_solve_is_inverse(self, rng):
        pre = tchan_preconditioner(kms_toeplitz(24, 0.5))
        x = rng.standard_normal(24)
        np.testing.assert_allclose(pre.matvec(pre.solve(x)), x,
                                   atol=1e-11)

    def test_strang_copies_central_band(self):
        t = kms_toeplitz(8, 0.5)
        pre = strang_preconditioner(t)
        row = t.first_scalar_row()
        np.testing.assert_allclose(pre.first_column[:5], row[:5])
        np.testing.assert_allclose(pre.first_column[5], row[3])

    def test_tchan_weighted_average(self):
        t = kms_toeplitz(6, 0.5)
        pre = tchan_preconditioner(t)
        row = t.first_scalar_row()
        k = 2
        expect = ((6 - k) * row[k] + k * row[6 - k]) / 6
        assert pre.first_column[k] == pytest.approx(expect)

    def test_spd_spectrum(self):
        pre = strang_preconditioner(kms_toeplitz(40, 0.8))
        assert np.all(pre.eigenvalues > 0)

    def test_eigenvalue_floor(self):
        # a circulant built from an alternating row is singular; the
        # floor must keep it usable
        from repro.baselines.circulant import CirculantPreconditioner
        pre = CirculantPreconditioner(np.array([1.0, -1.0, 1.0, -1.0]))
        assert np.all(pre.eigenvalues > 0)

    def test_block_input_rejected(self):
        t = ar_block_toeplitz(4, 2, seed=1)
        with pytest.raises(ShapeError):
            strang_preconditioner(t)

    def test_shape_checks(self, rng):
        pre = strang_preconditioner(kms_toeplitz(8, 0.5))
        with pytest.raises(ShapeError):
            pre.solve(np.ones(9))


class TestCirculantPCG:
    @pytest.mark.parametrize("kind", ["strang", "tchan"])
    def test_converges_fast(self, kind, rng):
        t = kms_toeplitz(128, 0.9)
        b = rng.standard_normal(128)
        plain = pcg(t, b, tol=1e-10)
        res = circulant_pcg(t, b, kind=kind, tol=1e-10)
        assert res.converged
        assert res.iterations < 0.3 * plain.iterations
        np.testing.assert_allclose(t.dense() @ res.x, b, atol=1e-6)

    def test_long_memory_symbol(self, rng):
        # fGn has a hard (near-singular at 0) symbol; circulant PCG
        # still converges, just with more iterations.
        t = fgn_toeplitz(96, 0.85)
        b = rng.standard_normal(96)
        res = circulant_pcg(t, b, tol=1e-9, max_iter=400)
        assert res.converged
        np.testing.assert_allclose(t.dense() @ res.x, b, atol=1e-5)

    def test_unknown_kind(self):
        with pytest.raises(ShapeError):
            circulant_pcg(kms_toeplitz(8, 0.5), np.ones(8), kind="zzz")

    def test_first_row_input(self, rng):
        row = kms_toeplitz(16, 0.4).first_scalar_row()
        pre = strang_preconditioner(row)
        assert pre.order == 16


class TestPanels:
    @pytest.mark.parametrize("make", [strang_preconditioner,
                                      tchan_preconditioner])
    def test_block_pcg_with_circulant_preconditioner(self, make):
        t = kms_toeplitz(64, 0.9)
        b = np.random.default_rng(21).standard_normal((64, 3))
        pre = make(t)
        assert pre.solve(b).shape == b.shape
        assert pre.matvec(b).shape == b.shape
        res = pcg_block(t, b, preconditioner=pre, tol=1e-12)
        assert res.converged
        ref = np.linalg.solve(t.dense(), b)
        assert np.max(np.abs(res.x - ref)) <= 1e-8 * np.max(np.abs(ref))
