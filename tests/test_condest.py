"""Tests for the condition-number estimator."""

import numpy as np
import pytest

from repro.core.condest import condest, invnorm_estimate, one_norm
from repro.core.schur_spd import schur_spd_factor
from repro.errors import ShapeError
from repro.toeplitz import (
    BlockToeplitz,
    ar_block_toeplitz,
    indefinite_toeplitz,
    kms_toeplitz,
    prolate_toeplitz,
)


def _nonsymmetric_block_toeplitz(p=5, m=3, seed=4):
    rng = np.random.default_rng(seed)
    row = rng.standard_normal((p, m, m))
    col = rng.standard_normal((p, m, m))
    col[0] = row[0]
    return BlockToeplitz(col, row)


class TestOneNorm:
    @pytest.mark.parametrize("maker", [
        lambda: kms_toeplitz(17, 0.6),
        lambda: ar_block_toeplitz(6, 3, seed=1),
        lambda: indefinite_toeplitz(11, seed=2),
        _nonsymmetric_block_toeplitz,
    ])
    def test_matches_dense(self, maker):
        t = maker()
        ref = float(np.max(np.abs(t.dense()).sum(axis=0)))
        assert one_norm(t) == pytest.approx(ref, rel=1e-12)


class TestInvNorm:
    def test_estimate_is_lower_bound_within_factor(self, rng):
        for seed in range(4):
            t = ar_block_toeplitz(7, 2, seed=seed + 10)
            fact = schur_spd_factor(t)
            truth = float(np.max(
                np.abs(np.linalg.inv(t.dense())).sum(axis=0)))
            est = invnorm_estimate(fact.solve, t.order)
            assert est <= truth * (1 + 1e-10)
            assert est >= 0.1 * truth

    def test_identity(self):
        est = invnorm_estimate(lambda x: x, 10)
        assert 0.3 <= est <= 1.0 + 1e-12

    def test_invalid_n(self):
        with pytest.raises(ShapeError):
            invnorm_estimate(lambda x: x, 0)


class TestCondest:
    def test_well_conditioned(self):
        t = kms_toeplitz(32, 0.3)
        ref = np.linalg.cond(t.dense(), 1)
        est = condest(t)
        assert 0.1 * ref <= est <= 1.5 * ref

    def test_ill_conditioned_detected(self):
        t = prolate_toeplitz(24, 0.4)
        assert condest(t) > 1e4

    def test_indefinite_fallback(self):
        t = indefinite_toeplitz(12, seed=3)
        ref = np.linalg.cond(t.dense(), 1)
        est = condest(t)
        assert est <= 2.0 * ref
        assert est >= 0.05 * ref

    def test_reuses_factorization(self):
        t = kms_toeplitz(16, 0.5)
        fact = schur_spd_factor(t)
        assert condest(t, fact) == pytest.approx(condest(t), rel=1e-6)
