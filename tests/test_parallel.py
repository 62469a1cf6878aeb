"""Tests for the distributed block Schur implementation on the simulated
machine (Section 7)."""

import numpy as np
import pytest

from repro.core.schur_spd import schur_spd_factor
from repro.errors import DistributionError
from repro.parallel import (
    BlockCyclicLayout,
    SpreadLayout,
    analytic_factor_time,
    simulate_factorization,
)
from repro.toeplitz import ar_block_toeplitz, indefinite_toeplitz, \
    kms_toeplitz


class TestNumericalEquivalence:
    """The distributed algorithm must compute the serial factor."""

    @pytest.mark.parametrize("nproc", [1, 2, 3, 4, 7])
    def test_version1_block(self, nproc):
        t = ar_block_toeplitz(10, 3, seed=nproc)
        serial = schur_spd_factor(t).r
        run = simulate_factorization(t, nproc=nproc, b=1)
        np.testing.assert_allclose(run.r, serial, atol=1e-10)

    @pytest.mark.parametrize("b", [2, 3, 8])
    def test_version2_block(self, b):
        t = ar_block_toeplitz(12, 2, seed=b)
        serial = schur_spd_factor(t).r
        run = simulate_factorization(t, nproc=4, b=b)
        np.testing.assert_allclose(run.r, serial, atol=1e-10)

    @pytest.mark.parametrize("spread", [2, 4])
    def test_version3_block(self, spread):
        t = ar_block_toeplitz(9, 4, seed=spread)
        serial = schur_spd_factor(t).r
        run = simulate_factorization(t, nproc=8, b=1.0 / spread)
        np.testing.assert_allclose(run.r, serial, atol=1e-9)

    def test_scalar_problem(self):
        t = kms_toeplitz(48, 0.6)
        serial = schur_spd_factor(t).r
        run = simulate_factorization(t, nproc=6, b=1)
        np.testing.assert_allclose(run.r, serial, atol=1e-11)

    @pytest.mark.parametrize("rep", ["vy1", "vy2", "yty"])
    def test_representations(self, rep):
        t = ar_block_toeplitz(8, 2, seed=5)
        serial = schur_spd_factor(t).r
        run = simulate_factorization(t, nproc=3, b=1, representation=rep)
        np.testing.assert_allclose(run.r, serial, atol=1e-10)

    def test_more_pes_than_blocks(self):
        t = ar_block_toeplitz(4, 2, seed=6)
        serial = schur_spd_factor(t).r
        run = simulate_factorization(t, nproc=9, b=1)
        np.testing.assert_allclose(run.r, serial, atol=1e-11)

    def test_solve_through_simulated_factor(self, rng):
        t = ar_block_toeplitz(8, 3, seed=7)
        run = simulate_factorization(t, nproc=4, b=1)
        b = rng.standard_normal(t.order)
        import scipy.linalg as sla
        y = sla.solve_triangular(run.r, b, trans=1)
        x = sla.solve_triangular(run.r, y)
        np.testing.assert_allclose(t.dense() @ x, b, atol=1e-8)


class TestReports:
    def test_collect_false_returns_no_factor(self):
        t = kms_toeplitz(32, 0.5)
        run = simulate_factorization(t, nproc=4, b=1, collect=False)
        assert run.r is None
        assert run.time > 0

    def test_phase_categories_present(self):
        t = ar_block_toeplitz(10, 2, seed=8)
        run = simulate_factorization(t, nproc=4, b=1)
        bd = run.breakdown()
        for key in ("broadcast", "application", "barrier"):
            assert key in bd, f"missing phase {key}"

    def test_messages_counted(self):
        t = kms_toeplitz(24, 0.5)
        run = simulate_factorization(t, nproc=4, b=1)
        assert sum(r.messages_sent for r in run.report.ranks) > 0

    def test_time_positive_and_deterministic(self):
        t = kms_toeplitz(24, 0.5)
        t1 = simulate_factorization(t, nproc=4, b=1).time
        t2 = simulate_factorization(t, nproc=4, b=1).time
        assert t1 == t2 > 0

    def test_version2_fewer_shift_messages_than_version1(self):
        t = kms_toeplitz(64, 0.5)
        r1 = simulate_factorization(t, nproc=4, b=1, collect=False)
        r2 = simulate_factorization(t, nproc=4, b=8, collect=False)
        m1 = sum(r.messages_sent for r in r1.report.ranks)
        m2 = sum(r.messages_sent for r in r2.report.ranks)
        assert m2 < m1

    def test_version3_more_broadcast_time_than_version1(self):
        t = ar_block_toeplitz(8, 4, seed=9)
        r1 = simulate_factorization(t, nproc=4, b=1, collect=False)
        r3 = simulate_factorization(t, nproc=4, b=0.25, collect=False)
        b1 = r1.report.total_by_category().get("broadcast", 0)
        b3 = r3.report.total_by_category().get("broadcast", 0)
        assert b3 > b1


class TestValidation:
    def test_spread_requires_divisible_block(self):
        t = ar_block_toeplitz(6, 3, seed=10)
        with pytest.raises(DistributionError):
            simulate_factorization(t, nproc=4, b=0.5)

    def test_explicit_layout(self):
        t = ar_block_toeplitz(8, 2, seed=11)
        lay = BlockCyclicLayout(nproc=3, group_size=2)
        run = simulate_factorization(t, nproc=3, layout=lay)
        serial = schur_spd_factor(t).r
        np.testing.assert_allclose(run.r, serial, atol=1e-10)

    def test_unknown_layout_rejected(self):
        t = ar_block_toeplitz(4, 2, seed=12)
        with pytest.raises(DistributionError):
            simulate_factorization(t, nproc=2, layout="bogus")

    def test_single_block_rejected(self):
        t = ar_block_toeplitz(1, 2, seed=13)
        from repro.errors import ShapeError
        with pytest.raises(ShapeError):
            simulate_factorization(t, nproc=2, b=1)


class TestStepTransform:
    """Every distributed build stops at a near-zero hyperbolic pivot, at
    the serial factor's threshold."""

    @pytest.mark.parametrize("m,row_offset", [(2, 0), (4, 2)])
    def test_near_zero_pivot_breaks_down_at_the_pivot(self, m, row_offset):
        from repro.core.generator import block_schur_signature
        from repro.errors import BreakdownError
        from repro.parallel.spmd import build_transform

        # Two pivot columns; the first has |uᵀWu| = 2.0e-15·‖u‖².
        upper = np.full((m, 2), 0.1)
        upper[row_offset:row_offset + 2] = [[1.0, 0.5], [0.0, 1.0]]
        lower = np.zeros((m, 2))
        lower[0] = [np.sqrt(1.0 - 4e-15), 0.3]
        lower[1, 1] = 0.2
        with pytest.raises(BreakdownError, match="zero hyperbolic norm"):
            build_transform(upper, lower, block_schur_signature(m),
                            row_offset=row_offset)


class TestAnalyticModel:
    @pytest.mark.parametrize("b", [1, 4])
    def test_tracks_simulator_block_cyclic(self, b):
        t = kms_toeplitz(128, 0.5).regroup(2)
        sim = simulate_factorization(t, nproc=4, b=b, collect=False)
        ana = analytic_factor_time(128, 2, 4, b=b)
        assert 0.5 < ana.total / sim.time < 2.0

    def test_tracks_simulator_spread(self):
        t = kms_toeplitz(64, 0.5).regroup(4)
        sim = simulate_factorization(t, nproc=4, b=0.5, collect=False)
        ana = analytic_factor_time(64, 4, 4, b=0.5)
        assert 0.4 < ana.total / sim.time < 2.5

    def test_breakdown_phases(self):
        ana = analytic_factor_time(64, 2, 4, b=1)
        for key in ("shift", "blocking", "broadcast", "application",
                    "barrier"):
            assert key in ana.by_phase
        assert ana.total == pytest.approx(sum(ana.by_phase.values()))

    def test_invalid_sizes(self):
        from repro.errors import ShapeError
        with pytest.raises(ShapeError):
            analytic_factor_time(10, 3, 4)
