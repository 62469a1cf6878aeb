"""Tests for the workload generators."""

import hashlib
import warnings

import numpy as np
import pytest

from repro.errors import ShapeError
from repro.toeplitz import (
    ar_block_toeplitz,
    indefinite_toeplitz,
    kms_toeplitz,
    paper_example_matrix,
    prolate_toeplitz,
    random_spd_block_toeplitz,
    singular_minor_toeplitz,
    spectral_block_toeplitz,
)


def _eigs(t):
    return np.linalg.eigvalsh(t.dense())


class TestKMS:
    def test_spd(self):
        assert _eigs(kms_toeplitz(40, 0.7))[0] > 0

    def test_first_row(self):
        t = kms_toeplitz(5, 0.5)
        np.testing.assert_allclose(t.first_scalar_row(),
                                   [1, .5, .25, .125, .0625])

    def test_invalid_rho(self):
        with pytest.raises(ShapeError):
            kms_toeplitz(10, 1.0)
        with pytest.raises(ShapeError):
            kms_toeplitz(10, -1.5)

    def test_invalid_n(self):
        with pytest.raises(ShapeError):
            kms_toeplitz(0)


class TestProlate:
    def test_spd_but_ill_conditioned(self):
        t = prolate_toeplitz(24, 0.3)
        e = _eigs(t)
        assert e[0] > 0
        assert e[-1] / e[0] > 1e3  # notoriously ill-conditioned

    def test_invalid_bandwidth(self):
        with pytest.raises(ShapeError):
            prolate_toeplitz(10, 0.5)
        with pytest.raises(ShapeError):
            prolate_toeplitz(10, 0.0)


class TestAR:
    @pytest.mark.parametrize("p,m", [(4, 1), (6, 2), (8, 4)])
    def test_spd(self, p, m):
        t = ar_block_toeplitz(p, m, seed=1)
        assert _eigs(t)[0] > 0

    def test_deterministic_with_seed(self):
        a = ar_block_toeplitz(5, 3, seed=7).dense()
        b = ar_block_toeplitz(5, 3, seed=7).dense()
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self):
        a = ar_block_toeplitz(5, 3, seed=7).dense()
        b = ar_block_toeplitz(5, 3, seed=8).dense()
        assert not np.allclose(a, b)

    def test_block_structure(self):
        t = ar_block_toeplitz(6, 3, seed=2)
        assert t.block_size == 3 and t.num_blocks == 6

    def test_invalid_sizes(self):
        with pytest.raises(ShapeError):
            ar_block_toeplitz(0, 3)
        with pytest.raises(ShapeError):
            ar_block_toeplitz(3, 0)


class TestSpectral:
    @pytest.mark.parametrize("p,m", [(5, 1), (6, 3), (10, 2)])
    def test_spd(self, p, m):
        t = spectral_block_toeplitz(p, m, seed=3)
        assert _eigs(t)[0] > 0

    def test_deterministic(self):
        a = spectral_block_toeplitz(4, 2, seed=5).dense()
        b = spectral_block_toeplitz(4, 2, seed=5).dense()
        np.testing.assert_array_equal(a, b)


class TestRandomSPDFactory:
    @pytest.mark.parametrize("kind", ["ar", "spectral", "kms"])
    def test_kinds(self, kind):
        t = random_spd_block_toeplitz(6, 2, kind=kind, seed=1)
        assert t.order == 12
        assert _eigs(t)[0] > 0

    def test_unknown_kind(self):
        with pytest.raises(ShapeError):
            random_spd_block_toeplitz(4, 2, kind="nope")


class TestIndefinite:
    def test_is_indefinite(self):
        t = indefinite_toeplitz(14, seed=9)
        e = _eigs(t)
        assert e[0] < 0 < e[-1]

    def test_symmetric(self):
        d = indefinite_toeplitz(10, seed=10).dense()
        np.testing.assert_allclose(d, d.T)


class TestSingularMinor:
    def test_has_singular_minor(self):
        t = singular_minor_toeplitz(8, minor=2, seed=11)
        d = t.dense()
        assert abs(np.linalg.det(d[:2, :2])) < 1e-12
        assert abs(np.linalg.det(d)) > 1e-8

    @pytest.mark.parametrize("minor", [2, 3, 4])
    def test_minor_position(self, minor):
        t = singular_minor_toeplitz(10, minor=minor, seed=12)
        d = t.dense()
        assert abs(np.linalg.det(d[:minor, :minor])) < 1e-10

    def test_invalid_minor(self):
        with pytest.raises(ShapeError):
            singular_minor_toeplitz(5, minor=1)
        with pytest.raises(ShapeError):
            singular_minor_toeplitz(5, minor=6)

    #: ``(n, minor, seed)`` → SHA-256 prefix of the first row drawn, for
    #: every fixed draw the tests, benches and examples make.
    FIRST_ROWS = {
        (6, 2, 6): "6b755c8d5eca0f15", (8, 2, 3): "29afecd06132e872",
        (8, 2, 11): "19a3f813924e83f2", (9, 2, 0): "eb674f8d5a280f6a",
        (9, 2, 1): "25cd6924922ff1cb", (9, 2, 2): "1a5c4e4641e19f41",
        (9, 2, 3): "62eac973e0a5ed17", (9, 2, 4): "a2e40704b08d44be",
        (10, 2, 5): "a97185189d376fa0", (10, 2, 8): "a9cbd6ad7277be04",
        (10, 2, 12): "27cf29472ac5e507", (10, 3, 12): "071312cb0da7060a",
        (10, 4, 12): "978b70924dd938c3", (12, 2, 0): "b4cba99890a3b940",
        (12, 2, 1): "4b7fe1f3ace68f1c", (12, 2, 2): "10c3bc15db5d5532",
        (12, 2, 3): "17bb0e433e312e09", (12, 2, 4): "4020a72db84e1a9b",
        (12, 2, 5): "8a1b26bdb82e0017", (12, 2, 12): "6fc3c04b3b5ae44c",
        (14, 2, 0): "f52378f009ed2cbe", (14, 2, 1): "229159fb2f15bf69",
        (14, 2, 2): "79cdca2ffd70053a", (16, 2, 1): "1ef5a119e7191423",
        (16, 4, 3): "c26856d32947fe9d", (24, 2, 0): "bcbc629859b3b216",
        (24, 2, 1): "4e32d5a6a7d5bf11", (24, 2, 3): "91d86f1f2ae1e7de",
        (24, 2, 7): "0286a281d271f0b7", (24, 2, 24): "58427b1e6a390c69",
        (40, 2, 5): "5acfa20df5a7d961", (48, 2, 4): "1ad7a5b24bda90c0",
        (48, 2, 48): "bcacedfc8689abc7", (256, 2, 1): "c16776b077953264",
        (512, 2, 0): "f5c47af004480003", (512, 2, 3): "6f09964112b59b47",
    }

    @pytest.mark.parametrize("n,minor,seed", sorted(FIRST_ROWS))
    def test_draws_are_pinned(self, n, minor, seed):
        t = singular_minor_toeplitz(n, minor=minor, seed=seed)
        row = np.ascontiguousarray(t.top_blocks[:, 0, 0])
        digest = hashlib.sha256(row.tobytes()).hexdigest()[:16]
        assert digest == self.FIRST_ROWS[n, minor, seed]

    def test_large_order_draws_without_overflow_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            t = singular_minor_toeplitz(512, seed=3)
        assert t.order == 512


class TestFgn:
    def test_spd(self):
        from repro.toeplitz import fgn_toeplitz
        t = fgn_toeplitz(32, 0.75)
        assert _eigs(t)[0] > 0

    def test_long_memory_decay(self):
        from repro.toeplitz import fgn_toeplitz
        row = fgn_toeplitz(64, 0.9).first_scalar_row()
        # slow (power-law) decay: lag-32 correlation still substantial
        assert row[32] > 0.05 * row[0]

    def test_h_half_is_white_noise(self):
        from repro.toeplitz import fgn_toeplitz
        row = fgn_toeplitz(8, 0.5).first_scalar_row()
        np.testing.assert_allclose(row[1:], 0.0, atol=1e-12)
        assert row[0] == pytest.approx(1.0)

    def test_invalid_hurst(self):
        from repro.toeplitz import fgn_toeplitz
        with pytest.raises(ShapeError):
            fgn_toeplitz(8, 1.0)
        with pytest.raises(ShapeError):
            fgn_toeplitz(8, 0.0)


class TestMABanded:
    def test_band_structure(self):
        from repro.toeplitz import ma_banded_toeplitz
        row = ma_banded_toeplitz(12, (0.5, 0.2)).first_scalar_row()
        np.testing.assert_allclose(row[3:], 0.0)
        assert row[0] == pytest.approx(1 + 0.25 + 0.04)

    def test_spd(self):
        from repro.toeplitz import ma_banded_toeplitz
        assert _eigs(ma_banded_toeplitz(16, (0.7,)))[0] > 0

    def test_block_regrouping(self):
        from repro.toeplitz import ma_banded_toeplitz
        t = ma_banded_toeplitz(16, (0.4, 0.1), block_size=4)
        assert t.block_size == 4

    def test_factorizable(self):
        from repro.core.schur_spd import schur_spd_factor
        from repro.toeplitz import ma_banded_toeplitz
        t = ma_banded_toeplitz(20, (0.6, 0.3))
        fact = schur_spd_factor(t)
        np.testing.assert_allclose(fact.reconstruct(), t.dense(),
                                   atol=1e-10)


class TestPaperExample:
    def test_first_row_verbatim(self, paper_matrix):
        np.testing.assert_allclose(
            paper_matrix.first_scalar_row(),
            [1.0000, 1.0000, 0.5297, 0.6711, 0.0077, 0.3834])

    def test_singular_2x2_minor(self, paper_matrix):
        d = paper_matrix.dense()
        assert abs(np.linalg.det(d[:2, :2])) < 1e-14

    def test_rhs_of_paper(self, paper_matrix):
        # eq. after (50): b = T·1 = (3.5919 4.2085 4.7305 …)
        b = paper_matrix.dense() @ np.ones(6)
        np.testing.assert_allclose(
            b, [3.5919, 4.2085, 4.7305, 4.7305, 4.2085, 3.5919],
            atol=1e-12)

    def test_overall_nonsingular(self, paper_matrix):
        assert abs(np.linalg.det(paper_matrix.dense())) > 1e-6
