"""Tests for the distributed triangular-solve data plane.

The contract: a distributed plan keeps the solve distributed — the
forward/backward SPMD sweeps run on the same backend that factored,
for vectors and panels, on every Figure-5 distribution that supports
them — with parity ≤ 1e-10 against the serial factorization, exact
comm-counter parity between the real and simulated programs, and a
recorded serial fallback everywhere the distributed path cannot run.
The Section-7 lookahead schedule must factor identically to the bulk
schedule on both backends.
"""

import os
import subprocess
import sys

import numpy as np
import pytest

import repro.engine as engine
from repro.core.refinement import refine
from repro.core.schur_spd import schur_spd_factor
from repro.errors import (
    DistributionError,
    InvalidOptionError,
    NotPositiveDefiniteError,
)
from repro.parallel import (
    DistributedFactorization,
    factor_distributed,
    make_layout,
    mp_factorization,
    mp_triangular_solve,
    multiprocess_available,
    simulate_factorization,
    simulate_triangular_solve,
    transport,
)
from repro.parallel.transport import SEGMENT_PREFIX
from repro.toeplitz import ar_block_toeplitz

requires_mp = pytest.mark.skipif(
    not multiprocess_available()[0],
    reason="multiprocess backend unavailable on this platform")

#: (nproc, distribution_b) for the three Figure-5 distributions.
DISTRIBUTIONS = [
    pytest.param(2, 1.0, id="v1"),
    pytest.param(4, 2.0, id="v2"),
    pytest.param(2, 0.5, id="v3"),
]


def _rhs(t, k):
    rng = np.random.default_rng(7)
    return (rng.standard_normal(t.order) if k == 1
            else rng.standard_normal((t.order, k)))


class TestSimulatedSolve:
    """Distributed sweeps on the discrete-event machine."""

    @pytest.mark.parametrize("k", [1, 32])
    @pytest.mark.parametrize("nproc,b", DISTRIBUTIONS)
    def test_parity_through_engine(self, nproc, b, k):
        t = ar_block_toeplitz(8, 4, seed=nproc)
        serial = schur_spd_factor(t)
        rhs = _rhs(t, k)
        pl = engine.plan(t, nproc=nproc, distribution_b=b,
                         backend="simulated", cache="off")
        res = engine.execute(pl, rhs)
        np.testing.assert_allclose(res.x, serial.solve(rhs), atol=1e-10)
        route = res.detail.last_solve_backend
        if b < 1:
            # Version 3 splits block columns: the solve sweeps need
            # whole columns, so the serial fallback runs — recorded.
            assert route == "serial"
            assert "spread" in res.detail.last_solve_fallback_reason
        else:
            assert route == "simulated"
            assert res.detail.last_solve_run is not None

    @pytest.mark.parametrize("k", [1, 32])
    def test_panel_matches_columnwise(self, k):
        t = ar_block_toeplitz(10, 3, seed=3)
        run = simulate_factorization(t, 2)
        rhs = _rhs(t, k)
        x, report = simulate_triangular_solve(run, rhs)
        assert x.shape == rhs.shape
        np.testing.assert_allclose(
            x, schur_spd_factor(t).solve(rhs), atol=1e-10)
        # one broadcast per block row per sweep, m·k words each, plus
        # one reduce per block row in the backward sweep
        m, p = run.block_size, run.num_blocks
        words = m * (1 if k == 1 else k)
        assert report.broadcast_words_by_rank() == {
            r: 2 * p * words for r in range(2)}
        assert report.reduce_words_by_rank() == {
            r: p * words for r in range(2)}

    def test_rejects_spread_layout(self):
        t = ar_block_toeplitz(8, 4, seed=1)
        run = simulate_factorization(t, 2, b=0.5)
        with pytest.raises(DistributionError):
            simulate_triangular_solve(run, np.ones(t.order))

    def test_run_without_factor_raises_typed_error(self):
        t = ar_block_toeplitz(8, 3, seed=2)
        run = simulate_factorization(t, 2, collect=False)
        with pytest.raises(DistributionError, match="collect=False"):
            simulate_triangular_solve(run, np.ones(t.order))

    def test_factorization_solves_with_its_own_factor(self):
        """The simulated sweeps read the factorization's own ``R``, even
        when its run kept none."""
        t = ar_block_toeplitz(8, 3, seed=2)
        serial = schur_spd_factor(t)
        fact = DistributedFactorization(
            r=serial.r.copy(), block_size=3, num_blocks=8,
            representation="vy2", nproc=2, backend="simulated",
            requested_backend="simulated",
            run=simulate_factorization(t, 2, collect=False))
        rhs = _rhs(t, 4)
        np.testing.assert_allclose(fact.solve(rhs), serial.solve(rhs),
                                   atol=1e-10)
        assert fact.last_solve_backend == "simulated"


@requires_mp
class TestMultiprocessSolve:
    """Real worker processes running the solve sweeps."""

    @pytest.mark.parametrize("k", [1, 32])
    @pytest.mark.parametrize("nproc,b", DISTRIBUTIONS)
    def test_parity_through_engine(self, nproc, b, k):
        t = ar_block_toeplitz(8, 4, seed=nproc + 10)
        serial = schur_spd_factor(t)
        rhs = _rhs(t, k)
        pl = engine.plan(t, nproc=nproc, distribution_b=b,
                         backend="multiprocess", cache="off")
        res = engine.execute(pl, rhs)
        np.testing.assert_allclose(res.x, serial.solve(rhs), atol=1e-10)
        route = res.detail.last_solve_backend
        if b < 1:
            assert route == "serial"
        else:
            assert route == "multiprocess"
            assert res.detail.last_solve_run.nrhs == k

    @pytest.mark.parametrize("k", [1, 32])
    def test_comm_parity_with_simulator(self, k):
        """Real solve counters equal the simulated program's, per rank,
        on Version 1 and Version 2 layouts."""
        t = ar_block_toeplitz(10, 3, seed=5)
        serial = schur_spd_factor(t)
        rhs = _rhs(t, k)
        for nproc, b in ((3, 1), (2, 2)):
            sim_run = simulate_factorization(t, nproc, b=b)
            _x, sim_rep = simulate_triangular_solve(sim_run, rhs)
            real = mp_triangular_solve(serial.r, make_layout(nproc, b=b),
                                       rhs, block_size=3)
            assert real.broadcast_words_by_rank() == \
                sim_rep.broadcast_words_by_rank()
            assert real.reduce_words_by_rank() == \
                sim_rep.reduce_words_by_rank()
            np.testing.assert_allclose(real.x, serial.solve(rhs),
                                       atol=1e-10)

    def test_solve_trace_records(self):
        t = ar_block_toeplitz(8, 3, seed=6)
        serial = schur_spd_factor(t)
        run = mp_triangular_solve(serial.r, make_layout(2, b=1),
                                  np.ones(t.order), block_size=3)
        records = run.to_records()
        pe = [r for r in records if r["name"] == "mp.solve.pe"]
        assert sorted(r["rank"] for r in pe) == [0, 1]
        for w in run.workers:
            assert {"solve", "barrier", "application"} <= set(w["phases"])

    def test_group_size_layout(self):
        """Version 2 (b > 1) solves distributed too."""
        t = ar_block_toeplitz(8, 3, seed=8)
        serial = schur_spd_factor(t)
        rhs = _rhs(t, 4)
        run = mp_triangular_solve(serial.r, make_layout(2, b=2), rhs,
                                  block_size=3)
        np.testing.assert_allclose(run.x, serial.solve(rhs), atol=1e-10)


class TestSolveFallback:
    def test_bare_factorization_solves_serially(self):
        """A DistributedFactorization without a run (back-compat
        construction) still solves, via the recorded serial fallback."""
        t = ar_block_toeplitz(8, 3, seed=5)
        serial = schur_spd_factor(t)
        fact = DistributedFactorization(
            r=serial.r.copy(), block_size=3, num_blocks=8,
            representation="vy2", nproc=2, backend="multiprocess",
            requested_backend="multiprocess")
        b = np.ones(t.order)
        np.testing.assert_allclose(fact.solve(b), serial.solve(b),
                                   atol=1e-10)
        assert fact.last_solve_backend == "serial"
        assert "no backend run" in fact.last_solve_fallback_reason

    def test_mp_unavailable_solve_falls_back(self, monkeypatch):
        t = ar_block_toeplitz(8, 3, seed=5)
        pl = engine.plan(t, nproc=2, backend="multiprocess",
                         cache="off")
        fact = factor_distributed(t, pl)
        monkeypatch.setenv("REPRO_MP_DISABLE", "1")
        b = np.ones(t.order)
        x = fact.solve(b)
        np.testing.assert_allclose(t.matvec(x), b, atol=1e-8)
        assert fact.last_solve_backend == "serial"
        assert "REPRO_MP_DISABLE" in fact.last_solve_fallback_reason

    def test_refinement_over_distributed_solves(self):
        """Blocked refinement drives the distributed solve path."""
        t = ar_block_toeplitz(8, 3, seed=9)
        pl = engine.plan(t, nproc=2, backend="simulated",
                         cache="off")
        fact = factor_distributed(t, pl)
        rhs = _rhs(t, 4)
        res = refine(fact, t, rhs)
        assert res.converged
        np.testing.assert_allclose(res.x, schur_spd_factor(t).solve(rhs),
                                   atol=1e-9)
        assert fact.last_solve_backend == "simulated"


class TestLookaheadSchedule:
    def test_simulated_lookahead_through_engine(self):
        t = ar_block_toeplitz(10, 3, seed=2)
        serial = schur_spd_factor(t)
        pl = engine.plan(t, nproc=2, schedule="lookahead",
                         backend="simulated", cache="off")
        res = engine.execute(pl, np.ones(t.order))
        np.testing.assert_allclose(t.matvec(res.x), np.ones(t.order),
                                   atol=1e-8)
        np.testing.assert_allclose(res.detail.r, serial.r, atol=1e-10)

    def test_plan_validates_lookahead(self):
        t = ar_block_toeplitz(8, 3, seed=2)
        with pytest.raises(InvalidOptionError):
            engine.plan(t, nproc=1, schedule="lookahead")
        with pytest.raises(InvalidOptionError):
            engine.plan(t, nproc=4, distribution_b=2,
                        schedule="lookahead")
        with pytest.raises(InvalidOptionError):
            engine.plan(t, nproc=2, schedule="eager")

    def test_schedule_in_cache_key(self):
        t = ar_block_toeplitz(8, 3, seed=2)
        bulk = engine.plan(t, nproc=2)
        look = engine.plan(t, nproc=2, schedule="lookahead")
        assert bulk.cache_key() != look.cache_key()

    @requires_mp
    @pytest.mark.parametrize("nproc", [2, 4])
    def test_mp_lookahead_parity(self, nproc):
        t = ar_block_toeplitz(12, 3, seed=nproc)
        serial = schur_spd_factor(t).r
        run = mp_factorization(t, nproc, schedule="lookahead")
        assert run.schedule == "lookahead"
        np.testing.assert_allclose(run.r, serial, atol=1e-10)

    @requires_mp
    def test_mp_lookahead_comm_parity(self):
        """Shift + broadcast words match the simulated lookahead."""
        t = ar_block_toeplitz(10, 4, seed=3)
        real = mp_factorization(t, 2, schedule="lookahead")
        sim = simulate_factorization(t, 2, schedule="lookahead")
        assert real.words_by_rank() == sim.report.words_by_rank()
        assert real.broadcast_words_by_rank() == \
            sim.report.broadcast_words_by_rank()

    @requires_mp
    def test_mp_lookahead_phases(self):
        """Lookahead runs barrier-free: waits are dataflow stalls."""
        t = ar_block_toeplitz(10, 3, seed=4)
        run = mp_factorization(t, 2, schedule="lookahead")
        for w in run.workers:
            assert "barrier" not in w["phases"]
            assert {"blocking", "broadcast"} <= set(w["phases"])

    @requires_mp
    def test_mp_lookahead_rejects_bad_layout(self):
        t = ar_block_toeplitz(8, 2, seed=1)
        with pytest.raises(DistributionError):
            mp_factorization(t, 4, b=2, schedule="lookahead")
        with pytest.raises(DistributionError):
            mp_factorization(t, 1, schedule="lookahead")

    @requires_mp
    def test_mp_lookahead_breakdown(self):
        """A non-SPD matrix raises through the lookahead schedule too."""
        from repro.toeplitz import SymmetricBlockToeplitz
        m, p = 2, 4
        blocks = np.zeros((p, m, m))
        blocks[0] = np.eye(m)
        blocks[1] = 2.0 * np.eye(m)
        t = SymmetricBlockToeplitz(blocks)
        with pytest.raises(NotPositiveDefiniteError):
            mp_factorization(t, 2, schedule="lookahead")


class TestTransportRegistry:
    def test_transport_in_cache_key_fields(self):
        from repro.engine.plan import _PLAN_KEY_FIELDS
        assert "schedule" in _PLAN_KEY_FIELDS

    @requires_mp
    def test_session_cleanup_tolerates_double_unlink(self):
        with transport.session() as sess:
            _arr, handle = sess.ndarray((4, 4))
            assert handle.name.startswith(SEGMENT_PREFIX)
            sess.cleanup()   # explicit …
        # … and the context-manager exit cleans up again: no raise.


@requires_mp
class TestCrashRobustness:
    """A worker dying mid-run must not leak /dev/shm segments."""

    CRASH_SCRIPT = """
import numpy as np
from repro.toeplitz import ar_block_toeplitz
from repro.parallel import mp_factorization
from repro.errors import DistributionError

t = ar_block_toeplitz(8, 3, seed=1)
for schedule in ("bulk", "lookahead"):
    try:
        mp_factorization(t, 2, schedule=schedule)
        raise SystemExit(f"{schedule}: crash injection did not fire")
    except DistributionError:
        pass
print("OK")
"""

    @pytest.mark.parametrize("stage", ["spawn", "attach", "step"])
    def test_no_segment_leak_on_worker_crash(self, stage, tmp_path):
        """Child dies at ``stage``; parent must raise and clean up
        every segment with no resource-tracker warnings."""
        env = dict(os.environ)
        env["REPRO_MP_CRASH"] = f"1:{stage}"
        env["PYTHONPATH"] = os.pathsep.join(
            [p for p in (env.get("PYTHONPATH"),) if p]
            + [os.path.join(os.path.dirname(__file__), "..", "src")])
        proc = subprocess.run(
            [sys.executable, "-c", self.CRASH_SCRIPT],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert "OK" in proc.stdout
        # the resource tracker prints leak warnings at interpreter exit
        assert "leaked shared_memory" not in proc.stderr
        assert "resource_tracker" not in proc.stderr
        if os.path.isdir("/dev/shm"):
            leftovers = [f for f in os.listdir("/dev/shm")
                         if f.startswith(SEGMENT_PREFIX)]
            assert leftovers == []

    def test_crash_during_solve_cleans_up(self, monkeypatch):
        t = ar_block_toeplitz(8, 3, seed=2)
        serial = schur_spd_factor(t)
        for stage in ("attach", "step"):
            monkeypatch.setenv("REPRO_MP_CRASH", f"0:{stage}")
            with pytest.raises(DistributionError):
                mp_triangular_solve(serial.r, make_layout(2, b=1),
                                    np.ones(t.order), block_size=3)
        monkeypatch.delenv("REPRO_MP_CRASH")
        if os.path.isdir("/dev/shm"):
            leftovers = [f for f in os.listdir("/dev/shm")
                         if f.startswith(SEGMENT_PREFIX)]
            assert leftovers == []


class TestLogdetGuard:
    def test_valid_logdet_matches_dense(self):
        t = ar_block_toeplitz(8, 3, seed=3)
        pl = engine.plan(t, nproc=2, cache="off")
        fact = factor_distributed(t, pl)
        expected = np.linalg.slogdet(t.dense())[1]
        assert abs(fact.logdet() - expected) < 1e-8

    def test_nonpositive_diagonal_raises(self):
        """abs() used to mask a failed factorization — now it raises."""
        t = ar_block_toeplitz(8, 3, seed=3)
        pl = engine.plan(t, nproc=2, cache="off")
        fact = factor_distributed(t, pl)
        r00 = fact.packed.diagonal()[0]
        fact.packed.write_block(0, 0, np.array([[-r00]]))
        with pytest.raises(NotPositiveDefiniteError):
            fact.logdet()
        fact.packed.write_block(0, 0, np.array([[0.0]]))
        with pytest.raises(NotPositiveDefiniteError):
            fact.logdet()
