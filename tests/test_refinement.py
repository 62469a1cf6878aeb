"""Tests for iterative refinement (Section 8.1)."""

import numpy as np
import pytest

import repro.engine as engine
from repro.core.refinement import refine
from repro.core.schur_indefinite import schur_indefinite_factor
from repro.core.schur_spd import schur_spd_factor
from repro.errors import ShapeError
from repro.toeplitz import (
    ar_block_toeplitz,
    indefinite_toeplitz,
    kms_toeplitz,
    paper_example_matrix,
    singular_minor_toeplitz,
)


class TestPaperExample:
    """Section 8.2's numbers: ‖x−x₁‖ ≈ 3.6e−5 → ≈ 7e−10 → ≈ 1.6e−14."""

    def setup_method(self):
        self.t = paper_example_matrix()
        self.x_true = np.ones(6)
        self.b = self.t.dense() @ self.x_true

    def test_error_sequence_magnitudes(self):
        fact = schur_indefinite_factor(self.t)
        res = refine(fact, self.t, self.b, keep_history=True)
        errs = [np.linalg.norm(self.x_true - x) for x in res.history]
        # x₁ error at the δ ≈ 1e−5 level
        assert 1e-7 < errs[0] < 1e-3
        # one refinement: ~1e−10 level
        assert errs[1] < 1e-7
        # two refinements: machine precision
        assert errs[2] < 1e-12

    def test_converges_within_a_few_steps(self):
        fact = schur_indefinite_factor(self.t)
        res = refine(fact, self.t, self.b)
        assert res.converged
        assert res.iterations <= 6  # paper: typically 2 suffice

    def test_final_solution_accuracy(self):
        fact = schur_indefinite_factor(self.t)
        res = refine(fact, self.t, self.b)
        assert np.linalg.norm(res.x - self.x_true) < 1e-11

    def test_residual_norms_decrease(self):
        fact = schur_indefinite_factor(self.t)
        res = refine(fact, self.t, self.b)
        assert res.residual_norms[1] < res.residual_norms[0]

    def test_correction_norms_decrease_linearly(self):
        # eq. 41: linear convergence with factor ≈ γ ≪ 1.
        fact = schur_indefinite_factor(self.t)
        res = refine(fact, self.t, self.b, keep_history=True)
        c = res.correction_norms
        assert c[1] < 1e-2 * c[0]


class TestGeneralBehaviour:
    @pytest.mark.parametrize("seed", range(5))
    def test_singular_minor_family_full_accuracy(self, seed):
        t = singular_minor_toeplitz(12, minor=2, seed=seed)
        x_true = np.random.default_rng(seed).standard_normal(12)
        b = t.dense() @ x_true
        fact = schur_indefinite_factor(t)
        res = refine(fact, t, b)
        assert res.converged
        cond = np.linalg.cond(t.dense())
        tol = 1e-13 * max(cond, 1.0) * np.linalg.norm(x_true)
        assert np.linalg.norm(res.x - x_true) < max(tol, 1e-10)

    def test_spd_factorization_refines_too(self, rng):
        t = ar_block_toeplitz(8, 2, seed=1)
        fact = schur_spd_factor(t)
        b = rng.standard_normal(16)
        res = refine(fact, t, b)
        assert res.converged
        assert res.iterations <= 3  # already backward stable

    def test_indefinite_nonsingular(self, rng):
        t = indefinite_toeplitz(11, seed=2)
        fact = schur_indefinite_factor(t)
        b = rng.standard_normal(11)
        res = refine(fact, t, b)
        assert res.converged
        np.testing.assert_allclose(t.dense() @ res.x, b, atol=1e-7)

    def test_max_iter_respected(self):
        t = paper_example_matrix()
        fact = schur_indefinite_factor(t)
        b = t.dense() @ np.ones(6)
        res = refine(fact, t, b, max_iter=1, tol=1e-30)
        assert res.iterations <= 1

    def test_tolerance_controls_stop(self):
        t = paper_example_matrix()
        fact = schur_indefinite_factor(t)
        b = t.dense() @ np.ones(6)
        loose = refine(fact, t, b, tol=1e-2)
        tight = refine(fact, t, b, tol=1e-14)
        assert loose.iterations <= tight.iterations

    def test_history_only_when_requested(self):
        t = paper_example_matrix()
        fact = schur_indefinite_factor(t)
        b = t.dense() @ np.ones(6)
        assert refine(fact, t, b).history == []
        assert len(refine(fact, t, b, keep_history=True).history) >= 1

    def test_shape_mismatch(self):
        t = paper_example_matrix()
        fact = schur_indefinite_factor(t)
        with pytest.raises(ShapeError):
            refine(fact, t, np.ones(4))

    @pytest.mark.parametrize("nrhs", [None, 3])
    def test_diverging_solve_is_not_converged(self, nrhs):
        """Corrections that grow with the residual are divergence, not
        the rounding floor (γ = ‖ΔT T⁻¹‖ = 1.5 here)."""
        t = ar_block_toeplitz(8, 2, seed=1)
        exact = schur_spd_factor(t)

        class Overshoot:
            dtype = exact.dtype

            def solve(self, b):
                return 2.5 * exact.solve(b)

        rng = np.random.default_rng(0)
        b = rng.standard_normal(16 if nrhs is None else (16, nrhs))
        res = refine(Overshoot(), t, b)
        assert not res.converged
        assert res.residual_norms[-1] > res.residual_norms[0]

    def test_residual_tracking_lengths(self):
        t = paper_example_matrix()
        fact = schur_indefinite_factor(t)
        b = t.dense() @ np.ones(6)
        res = refine(fact, t, b)
        assert len(res.residual_norms) >= 1
        assert len(res.correction_norms) == res.iterations


class TestStallIsNotConvergence:
    """A weakly stable fp32 factor of an ill-conditioned operator can
    leave a correction of real size that stops halving while the
    residual merely holds: that is a stall, not the rounding floor."""

    @pytest.mark.parametrize("rho", [0.999, 0.99999])
    def test_stalled_reduced_factor_reports_no_convergence(self, rho):
        t = kms_toeplitz(64, rho)
        fact = schur_indefinite_factor(t, precision="fp32")
        b = np.random.default_rng(5).standard_normal(64)
        assert not refine(fact, t, b).converged

    @pytest.mark.parametrize("rho", [0.999, 0.99999])
    def test_engine_recovers_at_fp64(self, rho):
        t = kms_toeplitz(64, rho)
        dense = t.dense()
        b = np.random.default_rng(5).standard_normal(64)
        pl = engine.plan(t, algorithm="indefinite+refine",
                         precision="fp32", cache="off")
        x = engine.execute(pl, b).x
        eta = (np.max(np.abs(b - dense @ x))
               / (np.max(np.sum(np.abs(dense), axis=1)) * np.max(np.abs(x))
                  + np.max(np.abs(b))))
        assert eta <= 1e-10
