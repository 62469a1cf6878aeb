"""Tests for the SPD block Schur factorization (Sections 5–6)."""

import numpy as np
import pytest
import scipy.linalg as sla

from repro.core.block_reflector import REPRESENTATIONS
from repro.core.generator import (
    block_schur_signature,
    indefinite_generator,
    spd_generator,
)
from repro.core.schur_spd import (
    ColumnStep,
    SchurOptions,
    apply_transform,
    build_transform,
    eliminate_block,
    schur_spd_factor,
)
from repro.errors import (
    InvalidOptionError,
    NotPositiveDefiniteError,
    ShapeError,
)
from repro.toeplitz import (
    SymmetricBlockToeplitz,
    ar_block_toeplitz,
    kms_toeplitz,
    prolate_toeplitz,
    spectral_block_toeplitz,
)
from tests.conftest import assert_upper_triangular


def _check_factorization(t, fact, tol=1e-9):
    d = t.dense()
    scale = np.linalg.norm(d)
    assert np.max(np.abs(fact.r.T @ fact.r - d)) <= tol * scale
    assert_upper_triangular(fact.r, atol=tol * scale)


class TestBasicCorrectness:
    @pytest.mark.parametrize("p,m", [(2, 1), (4, 1), (16, 1), (2, 3),
                                     (6, 2), (5, 4), (8, 3), (3, 5)])
    def test_rtr_equals_t(self, p, m):
        t = ar_block_toeplitz(p, m, seed=p * 7 + m)
        _check_factorization(t, schur_spd_factor(t))

    def test_matches_scipy_cholesky(self, small_spd_block):
        fact = schur_spd_factor(small_spd_block)
        ref = sla.cholesky(small_spd_block.dense(), lower=False)
        np.testing.assert_allclose(fact.r, ref, atol=1e-9)

    def test_scalar_matches_scipy(self, small_spd_scalar):
        fact = schur_spd_factor(small_spd_scalar)
        ref = sla.cholesky(small_spd_scalar.dense(), lower=False)
        np.testing.assert_allclose(fact.r, ref, atol=1e-10)

    def test_positive_diagonal(self, small_spd_block):
        fact = schur_spd_factor(small_spd_block)
        assert np.all(np.diag(fact.r) > 0)

    def test_l_property(self, small_spd_block):
        fact = schur_spd_factor(small_spd_block)
        np.testing.assert_allclose(fact.l, fact.r.T)

    def test_accepts_prebuilt_generator(self, small_spd_block):
        g = spd_generator(small_spd_block)
        fact = schur_spd_factor(g)
        _check_factorization(small_spd_block, fact)

    def test_generator_not_mutated(self, small_spd_block):
        g = spd_generator(small_spd_block)
        snapshot = np.array(g.gen)
        schur_spd_factor(g)
        np.testing.assert_array_equal(g.gen, snapshot)

    def test_spectral_workload(self):
        t = spectral_block_toeplitz(10, 3, seed=2)
        _check_factorization(t, schur_spd_factor(t))

    def test_ill_conditioned_prolate(self):
        t = prolate_toeplitz(32, 0.4)
        fact = schur_spd_factor(t)
        d = t.dense()
        # looser tolerance: κ(T) is large
        assert np.max(np.abs(fact.r.T @ fact.r - d)) <= 1e-7


class TestRepresentations:
    @pytest.mark.parametrize("rep", REPRESENTATIONS)
    def test_each_representation(self, rep, small_spd_block):
        fact = schur_spd_factor(
            small_spd_block, options=SchurOptions(representation=rep))
        _check_factorization(small_spd_block, fact)

    def test_representations_agree(self, small_spd_block):
        rs = [schur_spd_factor(small_spd_block,
                               options=SchurOptions(representation=r)).r
              for r in REPRESENTATIONS]
        for r in rs[1:]:
            np.testing.assert_allclose(r, rs[0], atol=1e-9)

    def test_unknown_representation_raises(self, small_spd_block):
        with pytest.raises(InvalidOptionError):
            schur_spd_factor(small_spd_block,
                             options=SchurOptions(representation="nope"))


class TestTwoLevelBlocking:
    @pytest.mark.parametrize("panel", [1, 2, 3, 4])
    def test_panel_widths(self, panel):
        t = ar_block_toeplitz(6, 4, seed=3)
        fact = schur_spd_factor(t, options=SchurOptions(panel=panel))
        _check_factorization(t, fact)

    def test_panel_equals_default(self):
        t = ar_block_toeplitz(5, 4, seed=4)
        r1 = schur_spd_factor(t, options=SchurOptions(panel=4)).r
        r2 = schur_spd_factor(t).r
        np.testing.assert_allclose(r1, r2, atol=1e-12)

    @pytest.mark.parametrize("rep", ["vy1", "vy2", "yty"])
    def test_panel_with_each_representation(self, rep):
        t = ar_block_toeplitz(5, 6, seed=5)
        fact = schur_spd_factor(
            t, options=SchurOptions(representation=rep, panel=2))
        _check_factorization(t, fact)


class TestShiftVsInPlace:
    def test_explicit_shift_matches_in_place(self, small_spd_block):
        r_ip = schur_spd_factor(
            small_spd_block, options=SchurOptions(in_place=True)).r
        r_sh = schur_spd_factor(
            small_spd_block, options=SchurOptions(in_place=False)).r
        np.testing.assert_allclose(r_sh, r_ip, atol=1e-11)

    def test_shift_variant_scalar(self, small_spd_scalar):
        fact = schur_spd_factor(small_spd_scalar,
                                options=SchurOptions(in_place=False))
        _check_factorization(small_spd_scalar, fact)


class TestSolveAndDerived:
    def test_solve_single_rhs(self, small_spd_block, rng):
        fact = schur_spd_factor(small_spd_block)
        b = rng.standard_normal(small_spd_block.order)
        x = fact.solve(b)
        np.testing.assert_allclose(small_spd_block.dense() @ x, b,
                                   atol=1e-8)

    def test_solve_multiple_rhs(self, small_spd_block, rng):
        fact = schur_spd_factor(small_spd_block)
        b = rng.standard_normal((small_spd_block.order, 3))
        x = fact.solve(b)
        np.testing.assert_allclose(small_spd_block.dense() @ x, b,
                                   atol=1e-8)

    def test_solve_shape_mismatch(self, small_spd_block):
        fact = schur_spd_factor(small_spd_block)
        with pytest.raises(ShapeError):
            fact.solve(np.ones(5))

    def test_logdet(self, small_spd_block):
        fact = schur_spd_factor(small_spd_block)
        _, ref = np.linalg.slogdet(small_spd_block.dense())
        assert fact.logdet() == pytest.approx(ref, rel=1e-10)

    def test_reconstruct(self, small_spd_block):
        fact = schur_spd_factor(small_spd_block)
        np.testing.assert_allclose(fact.reconstruct(),
                                   small_spd_block.dense(), atol=1e-9)

    def test_order_property(self, small_spd_block):
        fact = schur_spd_factor(small_spd_block)
        assert fact.order == small_spd_block.order


class TestBreakdown:
    def test_indefinite_rejected(self):
        t = SymmetricBlockToeplitz.from_first_row([1.0, 2.0, 0.1, 0.05])
        assert np.linalg.eigvalsh(t.dense())[0] < 0
        with pytest.raises(NotPositiveDefiniteError):
            schur_spd_factor(t)

    def test_negative_diagonal_rejected(self):
        t = SymmetricBlockToeplitz.from_first_row([-1.0, 0.1])
        with pytest.raises(NotPositiveDefiniteError):
            schur_spd_factor(t)

    def test_semidefinite_rejected(self):
        t = SymmetricBlockToeplitz.from_first_row([1.0, 1.0, 1.0])
        with pytest.raises(NotPositiveDefiniteError):
            schur_spd_factor(t)

    @pytest.mark.parametrize("t", [
        kms_toeplitz(16, 0.5).scaled(-1.0),
        ar_block_toeplitz(6, 2, seed=1).scaled(-1.0),
    ], ids=["kms16", "ar6x2"])
    def test_negative_upper_signature_rejected(self, t):
        """A generator whose upper signature is not +I has a leading
        block that is not positive definite; it must raise, not return
        a factor with ``RᵀR = −T``."""
        g = indefinite_generator(t)
        with pytest.raises(NotPositiveDefiniteError):
            schur_spd_factor(g)
        m = g.block_size
        upper, lower = g.gen[:m, m:].copy(), g.gen[m:, m:].copy()
        with pytest.raises(NotPositiveDefiniteError):
            eliminate_block(upper, lower, g.w)


class TestBlockStep:
    @pytest.mark.parametrize("representation", ["vy2", "yty", "unblocked"])
    def test_mixed_pivot_signs(self, representation):
        """A panel whose second pivot stays positive: ``negrows`` is an
        index array, and both phases flip exactly that row."""
        rng = np.random.default_rng(3)
        m, k = 3, 2
        up0 = np.triu(rng.uniform(0.2, 0.5, (m, 5)), 0)
        up0[[0, 1, 2], [0, 1, 2]] = [2.0, -1.5, 1.0]
        lo0 = 0.1 * rng.standard_normal((m, 5))
        up, lo = up0.copy(), lo0.copy()
        step = ColumnStep(block_schur_signature(m), np.float64,
                          breakdown_tol=SchurOptions.breakdown_tol)
        u, negrows = build_transform(step, up[:, :k], lo[:, :k],
                                     representation)
        assert list(negrows) == [0]
        assert np.all(up.diagonal()[:k] > 0)
        assert not lo[:, :k].any()
        unflipped_up, unflipped_lo = up[:, k:].copy(), lo[:, k:].copy()
        u.apply_pair(unflipped_up, unflipped_lo)
        apply_transform(u, negrows, up[:, k:], lo[:, k:])
        np.testing.assert_array_equal(up[0, k:], -unflipped_up[0])
        np.testing.assert_array_equal(up[1:, k:], unflipped_up[1:])
        np.testing.assert_array_equal(lo[:, k:], unflipped_lo)
        # Whole-row flips keep the W-Gram matrix of the generator.
        np.testing.assert_allclose(up.T @ up - lo.T @ lo,
                                   up0.T @ up0 - lo0.T @ lo0,
                                   atol=1e-13)


class TestRegroupedFactorizations:
    @pytest.mark.parametrize("ms", [1, 2, 4, 8, 16])
    def test_point_toeplitz_as_blocks(self, ms):
        t = kms_toeplitz(32, 0.6)
        ts = t.regroup(ms)
        fact = schur_spd_factor(ts)
        _check_factorization(t, fact)

    def test_regroup_gives_same_factor(self):
        # The Cholesky factor is unique ⇒ m_s must not change R.
        t = kms_toeplitz(24, 0.5)
        r1 = schur_spd_factor(t).r
        r4 = schur_spd_factor(t.regroup(4)).r
        np.testing.assert_allclose(r4, r1, atol=1e-10)


def _serve_hot_operators(num_blocks):
    """The four AR operators of the end-to-end ``serve_hot`` workload
    (its seed stream at seed 0, m = 4), at ``num_blocks`` blocks."""
    rng = np.random.default_rng([0, 2048])
    return [ar_block_toeplitz(num_blocks, 4, seed=int(rng.integers(2**31)))
            for _ in range(4)]


def _probe_backward_error(t, fact):
    """‖TV − RᵀRV‖∞ / (‖T‖∞ ‖V‖∞) over 8 Gaussian probe columns."""
    v = np.random.default_rng(7).standard_normal((t.order, 8))
    r = fact.r.astype(np.float64)
    resid = t.matvec(v) - r.T @ (r @ v)
    t_norm = np.abs(t.dense()).sum(axis=1).max()
    v_norm = np.abs(v).sum(axis=1).max()
    return np.abs(resid).sum(axis=1).max() / (t_norm * v_norm)


class TestAccuracyGate:
    """Schur recursions are only weakly stable (Bojanczyk, Brent & de
    Hoog), so the evaluation order of the column step matters: fusing
    the pivot-row update into one 2m-row gemv/ger keeps each step within
    rounding yet raises this error about tenfold at n = 2048.  The bounds
    sit about twice above the measured maxima, below that regression."""

    @pytest.mark.parametrize("num_blocks", [256, 512])
    @pytest.mark.parametrize("config,bound", [
        ("default", 1e-15),
        ("panel=2", 1e-15),
        ("m_s=16", 2e-15),
        ("fp32", 3e-7),
    ])
    def test_probe_backward_error(self, num_blocks, config, bound):
        options = {"default": SchurOptions(),
                   "panel=2": SchurOptions(panel=2),
                   "m_s=16": SchurOptions(),
                   "fp32": SchurOptions(precision="fp32")}[config]
        for t in _serve_hot_operators(num_blocks):
            source = t.regroup(16) if config == "m_s=16" else t
            fact = schur_spd_factor(source, options=options)
            assert _probe_backward_error(t, fact) <= bound
