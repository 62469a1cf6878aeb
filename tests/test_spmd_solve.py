"""Tests for the distributed triangular solve."""

import numpy as np
import pytest

from repro.core.schur_spd import schur_spd_factor
from repro.errors import DistributionError
from repro.machine.ops import Reduce
from repro.machine.simulator import Machine
from repro.parallel import simulate_factorization, simulate_triangular_solve
from repro.toeplitz import ar_block_toeplitz, kms_toeplitz


def simulate_solve(t, b, nproc, bdist=1):
    """Factor and solve ``T x = b`` on the simulated machine; returns
    ``(x, factorization run, solve report)``."""
    run = simulate_factorization(t, nproc, b=bdist)
    x, report = simulate_triangular_solve(run, b)
    return x, run, report


class TestReduceOp:
    def test_sum_to_root(self):
        def prog(ctx):
            got = yield Reduce(root=0,
                               payload=np.full(2, float(ctx.rank + 1)),
                               words=2)
            return None if got is None else got.tolist()

        rep = Machine(3).run(prog)
        assert rep.results[0] == [6.0, 6.0]
        assert rep.results[1] is None and rep.results[2] is None

    def test_none_payloads_are_zero(self):
        def prog(ctx):
            payload = np.ones(2) if ctx.rank == 1 else None
            got = yield Reduce(root=1, payload=payload, words=2)
            return None if got is None else got.tolist()

        rep = Machine(3).run(prog)
        assert rep.results[1] == [1.0, 1.0]

    def test_root_disagreement(self):
        from repro.errors import DeadlockError

        def prog(ctx):
            yield Reduce(root=ctx.rank, payload=np.ones(1), words=1)

        with pytest.raises(DeadlockError):
            Machine(2).run(prog)

    def test_reduce_charges_time(self):
        def prog(ctx):
            yield Reduce(root=0, payload=np.ones(4), words=4)
            return None

        rep = Machine(4).run(prog)
        assert rep.makespan > 0
        assert "reduce" in rep.total_by_category()


class TestDistributedSolve:
    @pytest.mark.parametrize("nproc,bdist", [(1, 1), (2, 1), (4, 1),
                                             (3, 2), (4, 4)])
    def test_matches_serial(self, nproc, bdist, rng):
        t = ar_block_toeplitz(9, 3, seed=nproc * 10 + int(bdist))
        b = rng.standard_normal(t.order)
        x, _run, _rep = simulate_solve(t, b, nproc=nproc, bdist=bdist)
        ref = schur_spd_factor(t).solve(b)
        np.testing.assert_allclose(x, ref, atol=1e-9)

    def test_scalar_problem(self, rng):
        t = kms_toeplitz(40, 0.6)
        b = rng.standard_normal(40)
        x, _run, _rep = simulate_solve(t, b, nproc=5)
        np.testing.assert_allclose(t.dense() @ x, b, atol=1e-8)

    def test_residual_small(self, rng):
        t = ar_block_toeplitz(12, 2, seed=3)
        b = rng.standard_normal(24)
        x, _, _ = simulate_solve(t, b, nproc=4)
        np.testing.assert_allclose(t.dense() @ x, b, atol=1e-8)

    def test_reports_and_times(self, rng):
        t = ar_block_toeplitz(8, 2, seed=4)
        b = rng.standard_normal(16)
        x, frun, srep = simulate_solve(t, b, nproc=4)
        assert frun.time > 0
        assert srep.makespan > 0
        # the solve is far cheaper than the factorization
        assert srep.makespan < frun.time

    def test_spread_layout_rejected(self, rng):
        t = ar_block_toeplitz(8, 2, seed=5)
        with pytest.raises(DistributionError):
            simulate_solve(t, np.ones(16), nproc=4, bdist=0.5)

    def test_rhs_shape(self):
        t = ar_block_toeplitz(6, 2, seed=6)
        from repro.errors import ShapeError
        with pytest.raises(ShapeError):
            simulate_solve(t, np.ones(5), nproc=2)
