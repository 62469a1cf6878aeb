"""Tests for the distributed block Schur implementation on the simulated
machine (Section 7)."""

import numpy as np
import pytest

from repro.core.schur_spd import SchurOptions, schur_spd_factor
from repro.errors import DistributionError
from repro.parallel import analytic_factor_time, simulate_factorization
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


def _assert_serial_bitwise(factor, t, nproc):
    """``factor(t, nproc, b=, schedule=)`` returns the serial packed
    ``R`` byte for byte: Versions 1/2 and lookahead the default factor,
    Version 3 with spread ``s`` (where ``s`` divides ``m``) the factor
    with ``panel = m / s``."""
    m = t.block_size
    runs = [(b, schedule, None)
            for b, schedule in ((1, "bulk"), (2, "bulk"), (1, "lookahead"))]
    runs += [(1.0 / s, "bulk", m // s)
             for s in range(2, nproc + 1) if m % s == 0]
    for b, schedule, panel in runs:
        serial = schur_spd_factor(t, options=SchurOptions(panel=panel))
        run = factor(t, nproc, b=b, schedule=schedule)
        if panel == 1:
            # One-column chunks agree to rounding only: a one-reflector
            # application takes a different BLAS path on a PE's
            # Fortran-ordered columns than on the serial C-ordered
            # generator.
            np.testing.assert_allclose(run.packed.data,
                                       serial.packed.data, atol=1e-12)
        else:
            assert (run.packed.data.tobytes()
                    == serial.packed.data.tobytes()), (b, schedule)


class TestSerialStep:
    """Every distributed program runs the serial factor's block step, so
    each returns the serial factor bit for bit."""

    @pytest.mark.parametrize("blocks,m,nproc", [
        (64, 4, 2), (64, 4, 3), (64, 4, 4), (13, 3, 2), (13, 3, 3)])
    def test_simulated_runs_give_the_serial_factor(self, blocks, m, nproc):
        _assert_serial_bitwise(simulate_factorization,
                               ar_block_toeplitz(blocks, m, seed=0), nproc)

    @pytest.mark.parametrize("blocks,m", [(64, 4), (13, 3)])
    def test_multiprocess_runs_give_the_serial_factor(self, blocks, m):
        from repro.parallel import mp_factorization, multiprocess_available

        ok, reason = multiprocess_available()
        if not ok:
            pytest.skip(reason)
        _assert_serial_bitwise(mp_factorization,
                               ar_block_toeplitz(blocks, m, seed=0), 2)


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
        from repro.core.schur_spd import (
            ColumnStep,
            SchurOptions,
            build_transform,
        )
        from repro.errors import BreakdownError

        # Two pivot columns; the first has |uᵀWu| = 2.0e-15·‖u‖².
        upper = np.full((m, 2), 0.1)
        upper[row_offset:row_offset + 2] = [[1.0, 0.5], [0.0, 1.0]]
        lower = np.zeros((m, 2))
        lower[0] = [np.sqrt(1.0 - 4e-15), 0.3]
        lower[1, 1] = 0.2
        step = ColumnStep(block_schur_signature(m), upper.dtype,
                          breakdown_tol=SchurOptions.breakdown_tol)
        with pytest.raises(BreakdownError, match="zero hyperbolic norm"):
            build_transform(step, upper, lower, "vy2",
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

    #: Exact ``(b, representation) → (total, by_phase)`` at n = 64,
    #: m = 4, NP = 4 for Version 1, Version 2 (b = 4) and Version 3 with
    #: spread 2 (< NP) and 4 (= NP).  The tuner ranks distributions by
    #: this model, so any change to its arithmetic should show here.
    PINNED = {
        (1, "vy2"): (0.002308905454545455, {
            "shift": 4.0859999999999985e-05, "blocking": 0.0011107,
            "broadcast": 0.00015999999999999999,
            "application": 0.0008173454545454545,
            "barrier": 0.00017999999999999996}),
        (1, "yty"): (0.0023307418181818173, {
            "shift": 4.0859999999999985e-05,
            "blocking": 0.0009403000000000004,
            "broadcast": 0.00014719999999999997,
            "application": 0.0010223818181818182,
            "barrier": 0.00017999999999999996}),
        (4, "vy2"): (0.002638536363636364, {
            "shift": 2.1400000000000002e-05, "blocking": 0.0011107,
            "broadcast": 0.00015999999999999999,
            "application": 0.001166436363636364,
            "barrier": 0.00017999999999999996}),
        (4, "yty"): (0.0027476454545454537, {
            "shift": 2.1400000000000002e-05,
            "blocking": 0.0009403000000000004,
            "broadcast": 0.00014719999999999997,
            "application": 0.0014587454545454547,
            "barrier": 0.00017999999999999996}),
        (0.5, "vy2"): (0.0027868169696969704, {
            "shift": 6.815333333333332e-05,
            "blocking": 0.0010643000000000004,
            "broadcast": 0.00027680000000000017,
            "application": 0.0011975636363636371,
            "barrier": 0.00017999999999999996}),
        (0.5, "yty"): (0.0027555624242424264, {
            "shift": 6.815333333333332e-05,
            "blocking": 0.0008938999999999998,
            "broadcast": 0.00026399999999999997,
            "application": 0.0013495090909090906,
            "barrier": 0.00017999999999999996}),
        (0.25, "vy2"): (0.003828509090909098, {
            "shift": 0.0001253, "blocking": 0.0010411,
            "broadcast": 0.0005152000000000003,
            "application": 0.0019669090909090908,
            "barrier": 0.00017999999999999996}),
        (0.25, "yty"): (0.003773490909090912, {
            "shift": 0.0001253, "blocking": 0.0008706999999999994,
            "broadcast": 0.0005023999999999996,
            "application": 0.0020950909090909093,
            "barrier": 0.00017999999999999996}),
    }

    @pytest.mark.parametrize("b,rep", sorted(PINNED))
    def test_pinned_per_version(self, b, rep):
        """Every Version's prediction, exact to the last bit."""
        ana = analytic_factor_time(64, 4, 4, b=b, representation=rep)
        assert (ana.total, ana.by_phase) == self.PINNED[(b, rep)]
