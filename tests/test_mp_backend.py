"""Tests for the real multiprocess distributed backend.

The contract: same plan, either backend, same ``R`` (to 1e-10 against
the serial factorization) and the same communication-volume counters;
per-PE spans land in the unified trace schema; unavailability degrades
gracefully to the simulator with a recorded reason.
"""

import sys
import tracemalloc

import numpy as np
import pytest

import repro.engine as engine
import repro.obs as obs
from repro.cli import main as cli_main
from repro.core.packed import packed_size
from repro.core.schur_spd import schur_spd_factor
from repro.errors import (
    DistributionError,
    MultiprocessUnavailableError,
    NotPositiveDefiniteError,
)
from repro.obs.schema import SCHEMA_VERSION
from repro.parallel import (
    DistributedFactorization,
    factor_distributed,
    mp_factorization,
    multiprocess_available,
    simulate_factorization,
)
from repro.toeplitz import SymmetricBlockToeplitz, ar_block_toeplitz

requires_mp = pytest.mark.skipif(
    not multiprocess_available()[0],
    reason="multiprocess backend unavailable on this platform")


class TestAvailability:
    def test_probe_returns_pair(self):
        ok, reason = multiprocess_available()
        assert isinstance(ok, bool)
        assert isinstance(reason, str)
        if ok:
            assert reason == ""

    def test_disable_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_MP_DISABLE", "1")
        ok, reason = multiprocess_available()
        assert not ok
        assert "REPRO_MP_DISABLE" in reason

    def test_disabled_factorization_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_MP_DISABLE", "1")
        t = ar_block_toeplitz(6, 2, seed=0)
        with pytest.raises(MultiprocessUnavailableError):
            mp_factorization(t, 2)


@requires_mp
class TestParity:
    """Real workers reproduce the serial factor on every distribution."""

    @pytest.mark.parametrize("nproc", [1, 2, 4])
    def test_version1(self, nproc):
        t = ar_block_toeplitz(10, 3, seed=nproc)
        serial = schur_spd_factor(t).r
        run = mp_factorization(t, nproc, b=1)
        np.testing.assert_allclose(run.r, serial, atol=1e-10)

    @pytest.mark.parametrize("b", [2, 3])
    def test_version2(self, b):
        t = ar_block_toeplitz(12, 2, seed=b)
        serial = schur_spd_factor(t).r
        run = mp_factorization(t, 4, b=b)
        np.testing.assert_allclose(run.r, serial, atol=1e-10)

    @pytest.mark.parametrize("spread", [2, 4])
    def test_version3(self, spread):
        t = ar_block_toeplitz(8, 4, seed=spread)
        serial = schur_spd_factor(t).r
        run = mp_factorization(t, 4, b=1.0 / spread)
        np.testing.assert_allclose(run.r, serial, atol=1e-10)

    def test_real_vs_simulated_same_plan(self):
        """Same plan, both backends: identical R."""
        t = ar_block_toeplitz(8, 4, seed=3)
        pl = engine.plan(t, nproc=4, distribution_b=2, cache="off")
        real = mp_factorization(t, plan=pl)
        sim = simulate_factorization(t, plan=pl)
        np.testing.assert_allclose(real.r, sim.r, atol=1e-10)

    def test_solve_through_backend(self):
        t = ar_block_toeplitz(8, 3, seed=5)
        run = mp_factorization(t, 2)
        fact = DistributedFactorization(
            r=run.r, block_size=run.block_size,
            num_blocks=run.num_blocks, representation=run.representation,
            nproc=2, backend="multiprocess",
            requested_backend="multiprocess")
        b = np.ones(t.order)
        x = fact.solve(b)
        np.testing.assert_allclose(t.matvec(x), b, atol=1e-8)


@requires_mp
class TestCommVolume:
    """Shift traffic of the real run matches the simulator per rank."""

    @pytest.mark.parametrize("nproc,b", [(2, 1), (4, 1), (4, 2), (4, 0.5)])
    def test_words_by_rank_match(self, nproc, b):
        t = ar_block_toeplitz(8, 4, seed=1)
        real = mp_factorization(t, nproc, b=b)
        sim = simulate_factorization(t, nproc, b=b)
        assert real.words_by_rank() == sim.report.words_by_rank()
        assert real.broadcast_words_by_rank() == \
            sim.report.broadcast_words_by_rank()

    def test_broadcast_words_counted(self):
        t = ar_block_toeplitz(6, 3, seed=2)
        run = mp_factorization(t, 2, b=1)
        # Every PE receives transform_words + m words per step.
        from repro.parallel.costs import transform_words
        per_step = transform_words("vy2", 3) + 3
        expected = per_step * (run.num_blocks - 1)
        assert all(v == expected
                   for v in run.broadcast_words_by_rank().values())


@requires_mp
class TestSpawnStartMethod:
    """Workers started with ``spawn`` (no inherited state) import their
    programs by name and give the serial answers."""

    @pytest.fixture
    def spawn(self, monkeypatch):
        import multiprocessing
        from repro.parallel import transport
        monkeypatch.setattr(transport, "context",
                            lambda: multiprocessing.get_context("spawn"))

    @pytest.mark.parametrize("b", [1, 0.5])
    def test_bulk_factor(self, spawn, b):
        t = ar_block_toeplitz(8, 4, seed=4)
        run = mp_factorization(t, 2, b=b)
        assert run.start_method == "spawn"
        np.testing.assert_allclose(run.r, schur_spd_factor(t).r,
                                   atol=1e-10)

    def test_panel_solve(self, spawn):
        from repro.parallel import make_layout, mp_triangular_solve
        t = ar_block_toeplitz(8, 3, seed=5)
        serial = schur_spd_factor(t)
        rhs = np.random.default_rng(3).standard_normal((t.order, 3))
        run = mp_triangular_solve(serial.r, make_layout(2, b=1), rhs,
                                  block_size=3)
        assert run.start_method == "spawn"
        np.testing.assert_allclose(run.x, serial.solve(rhs), atol=1e-10)


@requires_mp
class TestSmallRings:
    """Rings of 1 KiB, about one record: records wrap around the ring
    end, and writers wait for room (a dozen times per run here) while
    draining their own inbound rings.  Four workers on a host with fewer
    cores interleave all of it."""

    def test_wrapping_rings_give_serial_answers(self, monkeypatch):
        from repro.parallel import make_layout, mp_backend, mp_triangular_solve
        monkeypatch.setattr(mp_backend, "_ring_bytes", lambda words, m: 1024)
        t = ar_block_toeplitz(10, 3, seed=6)
        serial = schur_spd_factor(t)
        for b in (1, 2):
            run = mp_factorization(t, 4, b=b)
            np.testing.assert_allclose(run.r, serial.r, atol=1e-10)
        rhs = np.random.default_rng(4).standard_normal((t.order, 32))
        for b in (1, 2):
            srun = mp_triangular_solve(serial.packed, make_layout(4, b=b),
                                       rhs, block_size=3)
            np.testing.assert_allclose(srun.x, serial.solve(rhs),
                                       atol=1e-10)

    def test_message_larger_than_ring_raises(self, monkeypatch):
        from repro.parallel import mp_backend
        monkeypatch.setattr(mp_backend, "_ring_bytes", lambda words, m: 64)
        with pytest.raises(DistributionError, match="exceeds"):
            mp_factorization(ar_block_toeplitz(6, 3, seed=1), 2)


class TestFailureReporting:
    """A failing worker poisons the waits and aborts the barrier, so
    its peers fail too; the parent reports the failure that started it,
    not a lower rank's wake-up."""

    class _InlineProcess:
        """Runs the worker at ``start()``, in this process."""

        def __init__(self, target, args, daemon):
            self._target, self._args = target, args
            self.exitcode = None

        def start(self):
            self._target(*self._args)
            self.exitcode = 0

        def join(self, timeout=None):
            pass

        def is_alive(self):
            return False

    def _run(self, payloads):
        import queue
        from types import SimpleNamespace

        from repro.parallel import mp_backend
        q = queue.Queue()

        def worker(rank, nproc):
            q.put((rank, payloads[rank]))

        ctx = SimpleNamespace(Process=self._InlineProcess)
        return mp_backend._run_workers(ctx, worker, len(payloads), (), q,
                                       None)

    def test_reports_the_cause_not_the_wake_ups(self):
        payloads = [
            {"ok": False, "kind": "aborted",
             "error": "peer aborted while waiting for 'shift' from rank 1"},
            {"ok": False, "kind": "error",
             "error": "message of 2048 B exceeds the 64 B ring"},
            {"ok": False, "kind": "aborted",
             "error": "\nTraceback ...\nthreading.BrokenBarrierError\n"},
        ]
        with pytest.raises(DistributionError, match="exceeds"):
            self._run(payloads)

    def test_breakdown_reports_its_own_message(self):
        payloads = [
            {"ok": False, "kind": "aborted",
             "error": "\nTraceback ...\nthreading.BrokenBarrierError\n"},
            {"ok": False, "kind": "breakdown",
             "error": "matrix is not positive definite at step 3\n..."},
        ]
        with pytest.raises(NotPositiveDefiniteError, match="step 3"):
            self._run(payloads)

    def test_worker_labels_wake_ups_aborted(self):
        import queue
        import threading

        from repro.parallel import mp_backend

        def poisoned_wait():
            mp_backend._wait(lambda: False, [1], "a block")

        def broken_barrier():
            raise threading.BrokenBarrierError

        def own_failure():
            raise DistributionError("message of 96 B exceeds the 64 B ring")

        q = queue.Queue()
        kinds = []
        for fail in (poisoned_wait, broken_barrier, own_failure):
            with mp_backend._WorkerScope(0, q):
                fail()
            kinds.append(q.get_nowait()[1]["kind"])
        assert kinds == ["aborted", "aborted", "error"]


@requires_mp
class TestEngineIntegration:
    def test_acceptance_nproc4(self):
        """engine.factor, nproc=4, multiprocess: R ≤1e-10 vs serial."""
        t = ar_block_toeplitz(8, 4, seed=9)
        serial = schur_spd_factor(t).r
        pl = engine.plan(t, nproc=4, backend="multiprocess",
                         cache="off")
        fres = engine.factor(pl)
        fact = fres.factorization
        assert fact.backend == "multiprocess"
        assert not fact.fell_back
        np.testing.assert_allclose(fact.r, serial, atol=1e-10)

    def test_execute_solves(self):
        t = ar_block_toeplitz(6, 3, seed=11)
        b = np.ones(t.order)
        pl = engine.plan(t, nproc=2, backend="multiprocess",
                         cache="off")
        res = engine.execute(pl, b)
        assert res.algorithm == "spd-schur"
        np.testing.assert_allclose(t.matvec(res.x), b, atol=1e-8)

    def test_backends_do_not_alias_in_cache(self):
        """Serial/simulated/multiprocess plans have distinct cache keys."""
        t = ar_block_toeplitz(6, 3, seed=13)
        serial_pl = engine.plan(t)
        sim_pl = engine.plan(t, nproc=2)
        mp_pl = engine.plan(t, nproc=2, backend="multiprocess")
        keys = {serial_pl.cache_key(), sim_pl.cache_key(),
                mp_pl.cache_key()}
        assert len(keys) == 3

    def test_breakdown_falls_back_to_indefinite(self):
        """Worker-side Schur breakdown triggers the armed fallback."""
        m, p = 2, 4
        blocks = np.zeros((p, m, m))
        blocks[0] = np.eye(m)
        blocks[1] = 2.0 * np.eye(m)   # SPD leading block, indefinite T
        t = SymmetricBlockToeplitz(blocks)
        with pytest.raises(NotPositiveDefiniteError):
            mp_factorization(t, 2)
        pl = engine.plan(t, nproc=2, backend="multiprocess",
                         probe=False, cache="off")
        assert pl.algorithm == "spd-schur"
        fres = engine.factor(pl)
        assert fres.algorithm == "indefinite+refine"

    def test_plan_requires_known_backend(self):
        t = ar_block_toeplitz(6, 2, seed=1)
        from repro.errors import InvalidOptionError
        with pytest.raises(InvalidOptionError):
            engine.plan(t, nproc=2, backend="threads")

    def test_nproc_required_without_plan(self):
        t = ar_block_toeplitz(6, 2, seed=1)
        with pytest.raises(DistributionError):
            mp_factorization(t)


class TestFallback:
    def test_factor_distributed_falls_back(self, monkeypatch):
        monkeypatch.setenv("REPRO_MP_DISABLE", "1")
        t = ar_block_toeplitz(8, 3, seed=4)
        serial = schur_spd_factor(t).r
        pl = engine.plan(t, nproc=2, backend="multiprocess",
                         cache="off")
        fact = factor_distributed(t, pl)
        assert fact.backend == "simulated"
        assert fact.requested_backend == "multiprocess"
        assert fact.fell_back
        assert "REPRO_MP_DISABLE" in fact.fallback_reason
        np.testing.assert_allclose(fact.r, serial, atol=1e-10)

    def test_engine_factor_falls_back(self, monkeypatch):
        monkeypatch.setenv("REPRO_MP_DISABLE", "1")
        t = ar_block_toeplitz(6, 2, seed=8)
        pl = engine.plan(t, nproc=2, backend="multiprocess",
                         cache="off")
        fres = engine.factor(pl)
        assert fres.factorization.backend == "simulated"
        assert fres.factorization.fell_back


def _vm_rss_bytes() -> int:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) * 1024
    raise AssertionError("no VmRSS line")


@requires_mp
class TestMemory:
    """Shared segments cost memory only where written, and the parent
    holds ``R`` packed from gather to solve."""

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="reads VmRSS from /proc")
    def test_fresh_segment_is_not_touched(self):
        from repro.parallel import transport
        size = 64 << 20
        with transport.session() as sess:
            before = _vm_rss_bytes()
            arr, _ = sess.ndarray((size // 8,))
            grown = _vm_rss_bytes() - before
            assert not arr.any()
        assert grown < 8 << 20, grown / 2**20

    @pytest.mark.parametrize("schedule", ["bulk", "lookahead"])
    def test_factor_and_solve_allocate_no_dense_square(self, schedule):
        n = 1024
        opts = dict(nproc=2, backend="multiprocess", schedule=schedule,
                    cache="off")
        warm = ar_block_toeplitz(16, 4, seed=1)
        engine.solve(warm, np.ones(warm.order), **opts)
        t = ar_block_toeplitz(n // 4, 4, seed=2)
        b = np.ones(n)
        tracemalloc.start()
        try:
            res = engine.solve(t, b, **opts)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        fact = res.detail
        assert fact.backend == "multiprocess"
        assert fact.last_solve_backend == "multiprocess"
        assert peak < 0.6 * n * n * 8, peak / (n * n * 8)
        assert fact.packed.data.size == packed_size(n)
        assert fact.packed._dense is None       # .r never unpacked
        np.testing.assert_allclose(t.matvec(res.x), b, atol=1e-8)


@requires_mp
class TestTraceSchema:
    def test_records_conform(self):
        t = ar_block_toeplitz(6, 3, seed=6)
        run = mp_factorization(t, 2)
        records = run.to_records()
        assert records
        pe = [r for r in records if r["name"] == "mp.pe"]
        assert sorted(r["rank"] for r in pe) == [0, 1]
        for rec in records:
            assert rec["v"] == SCHEMA_VERSION
            assert rec["source"] == "multiprocess"
            assert rec["rank"] in (0, 1)
            assert rec["end"] >= rec["start"]
            assert set(rec) >= {"v", "source", "id", "parent", "name",
                                "kind", "rank", "start", "end"}
        # phase children reference their mp.pe parent
        ids = {r["id"] for r in records}
        for rec in records:
            if rec["parent"] is not None:
                assert rec["parent"] in ids

    def test_worker_spans_merge_into_profile(self):
        t = ar_block_toeplitz(6, 3, seed=6)
        pl = engine.plan(t, nproc=2, backend="multiprocess",
                         cache="off")
        obs.enable()
        try:
            fres = engine.factor(pl)
        finally:
            obs.disable()
        assert fres.profile is not None
        records = fres.profile.to_records()
        pe = [r for r in records if r["name"] == "mp.pe"]
        assert sorted(r["rank"] for r in pe) == [0, 1]
        # engine spans carry no rank; worker spans do
        root = [r for r in records if r["parent"] is None]
        assert root[0]["name"] == "engine.factor"
        assert root[0]["rank"] is None
        # source identifies the producer even inside the engine tree
        assert root[0]["source"] == "engine"
        assert all(r["source"] == "multiprocess" for r in records
                   if r["rank"] is not None)

    def test_phase_accounting_present(self):
        t = ar_block_toeplitz(6, 3, seed=6)
        run = mp_factorization(t, 2)
        for w in run.workers:
            assert {"shift", "broadcast", "blocking", "application",
                    "barrier", "gather"} <= set(w["phases"])
        assert run.breakdown()
        assert run.wall_seconds > 0


@requires_mp
class TestCli:
    def test_factor_multiprocess(self, tmp_path, capsys):
        t = ar_block_toeplitz(6, 3, seed=2)
        mat = tmp_path / "t.npy"
        np.save(mat, t.dense())
        rc = cli_main(["factor", str(mat), "--block-size", "3",
                       "--nproc", "2", "--backend", "multiprocess",
                       "--cache", "off"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "backend=multiprocess" in out

    def test_solve_fallback_message(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_MP_DISABLE", "1")
        t = ar_block_toeplitz(6, 3, seed=2)
        mat = tmp_path / "t.npy"
        rhs = tmp_path / "b.npy"
        np.save(mat, t.dense())
        np.save(rhs, np.ones(t.order))
        rc = cli_main(["solve", str(mat), str(rhs), "--block-size", "3",
                       "--nproc", "2", "--backend", "multiprocess",
                       "--cache", "off"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "backend=simulated" in out
        assert "multiprocess unavailable" in out
