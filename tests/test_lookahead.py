"""Tests for the pipelined (lookahead) distributed factorization."""

import numpy as np
import pytest

from repro.core.schur_spd import schur_spd_factor
from repro.errors import DistributionError
from repro.parallel import simulate_factorization
from repro.toeplitz import ar_block_toeplitz, kms_toeplitz


class TestLookaheadCorrectness:
    @pytest.mark.parametrize("nproc", [2, 3, 4, 7])
    def test_matches_serial(self, nproc):
        t = ar_block_toeplitz(11, 3, seed=nproc)
        serial = schur_spd_factor(t).r
        run = simulate_factorization(t, nproc=nproc, b=1,
                                     schedule="lookahead")
        np.testing.assert_allclose(run.r, serial, atol=1e-10)

    def test_scalar_problem(self):
        t = kms_toeplitz(40, 0.6)
        serial = schur_spd_factor(t).r
        run = simulate_factorization(t, nproc=4, b=1,
                                     schedule="lookahead")
        np.testing.assert_allclose(run.r, serial, atol=1e-11)

    @pytest.mark.parametrize("rep", ["vy1", "yty"])
    def test_representations(self, rep):
        t = ar_block_toeplitz(8, 2, seed=9)
        serial = schur_spd_factor(t).r
        run = simulate_factorization(t, nproc=3, b=1,
                                     schedule="lookahead",
                                     representation=rep)
        np.testing.assert_allclose(run.r, serial, atol=1e-10)

    def test_more_pes_than_blocks(self):
        t = ar_block_toeplitz(4, 2, seed=10)
        serial = schur_spd_factor(t).r
        run = simulate_factorization(t, nproc=6, b=1,
                                     schedule="lookahead")
        np.testing.assert_allclose(run.r, serial, atol=1e-11)

    def test_collect_false(self):
        t = kms_toeplitz(32, 0.5)
        run = simulate_factorization(t, nproc=4, b=1,
                                     schedule="lookahead", collect=False)
        assert run.r is None
        assert run.time > 0


class TestLookaheadBehaviour:
    def test_hides_build_at_scale(self):
        # at large NP the serial build leaves the critical path
        t = kms_toeplitz(1024, 0.5).regroup(8)
        plain = simulate_factorization(t, nproc=32, b=1,
                                       collect=False).time
        look = simulate_factorization(t, nproc=32, b=1,
                                      schedule="lookahead",
                                      collect=False).time
        assert look < plain

    def test_fine_grained_messaging_costs_at_small_np(self):
        # the flip side: per-block messages hurt when blocks-per-PE is
        # large
        t = kms_toeplitz(1024, 0.5).regroup(8)
        plain = simulate_factorization(t, nproc=4, b=1,
                                       collect=False).time
        look = simulate_factorization(t, nproc=4, b=1,
                                      schedule="lookahead",
                                      collect=False).time
        assert look > 0.8 * plain  # no win expected here

    def test_deterministic(self):
        t = kms_toeplitz(64, 0.5).regroup(4)
        t1 = simulate_factorization(t, nproc=4, b=1,
                                    schedule="lookahead",
                                    collect=False).time
        t2 = simulate_factorization(t, nproc=4, b=1,
                                    schedule="lookahead",
                                    collect=False).time
        assert t1 == t2


class TestLookaheadValidation:
    def test_requires_version1(self):
        t = ar_block_toeplitz(8, 2, seed=11)
        with pytest.raises(DistributionError):
            simulate_factorization(t, nproc=2, b=2, schedule="lookahead")
        with pytest.raises(DistributionError):
            simulate_factorization(t, nproc=2, b=0.5,
                                   schedule="lookahead")

    def test_requires_two_pes(self):
        t = ar_block_toeplitz(6, 2, seed=12)
        with pytest.raises(DistributionError):
            simulate_factorization(t, nproc=1, b=1, schedule="lookahead")

    def test_unknown_program(self):
        t = ar_block_toeplitz(6, 2, seed=13)
        with pytest.raises(DistributionError):
            simulate_factorization(t, nproc=2, b=1, schedule="zzz")
