"""Tests for the solver service: dispatcher, service, TCP front end."""

from __future__ import annotations

import concurrent.futures
import threading
import time

import numpy as np
import pytest

import repro.engine as engine
import repro.obs as obs
from repro.errors import (
    DeadlineExceededError,
    InvalidOptionError,
    ServiceClosedError,
    ServiceOverloadError,
    ShapeError,
)
from repro.serve import (
    BatchDispatcher,
    ServeRecord,
    ServeResponse,
    SolverService,
    TCPClient,
    start_tcp_server,
)
from repro.toeplitz.workloads import ar_block_toeplitz, kms_toeplitz


@pytest.fixture
def op():
    return ar_block_toeplitz(16, 4, seed=3)


@pytest.fixture
def rhs(op, rng):
    return rng.standard_normal(op.order)


def _reference(operator, b, **plan_kwargs):
    return engine.execute(engine.plan(operator, **plan_kwargs), b).x


class TestExecuteMany:
    def test_matches_individual_executes(self, op, rng):
        pl = engine.plan(op)
        bs = [rng.standard_normal(op.order) for _ in range(5)]
        results = engine.execute_many(pl, bs)
        assert len(results) == 5
        for b, res in zip(bs, results):
            assert res.x.ndim == 1
            np.testing.assert_allclose(res.x, _reference(op, b),
                                       atol=1e-10)

    def test_single_rhs_is_sequential_path(self, op, rhs):
        pl = engine.plan(op)
        [res] = engine.execute_many(pl, [rhs])
        assert np.array_equal(res.x, engine.execute(pl, rhs).x)
        assert res.record is not None and res.record.nrhs == 1

    def test_validates_input(self, op, rhs):
        pl = engine.plan(op)
        with pytest.raises(InvalidOptionError):
            engine.execute_many(pl, [])
        with pytest.raises(InvalidOptionError):
            engine.execute_many(pl, [np.ones((op.order, 2))])
        with pytest.raises(InvalidOptionError):
            engine.execute_many(pl, [rhs, rhs[:-1]])


class TestDispatcherCoalescing:
    def test_burst_coalesces_and_matches_sequential(self, op, rng):
        pl = engine.plan(op)
        bs = [rng.standard_normal(op.order) for _ in range(8)]
        with BatchDispatcher(max_wait_ms=200.0, max_batch_k=8) as disp:
            futs = [disp.submit(pl, b) for b in bs]
            resps = [f.result(timeout=10) for f in futs]
        ids = {r.record.batch_id for r in resps}
        assert len(ids) == 1, "one burst should ride one batch"
        assert all(r.record.batch_k == 8 for r in resps)
        for b, r in zip(bs, resps):
            np.testing.assert_allclose(r.x, _reference(op, b),
                                       atol=1e-10)

    def test_batch_of_one_is_bit_for_bit_sequential(self, op, rhs):
        pl = engine.plan(op)
        with BatchDispatcher(max_wait_ms=0.0) as disp:
            resp = disp.submit(pl, rhs).result(timeout=10)
        assert resp.record.batch_k == 1
        assert np.array_equal(resp.x, engine.execute(pl, rhs).x)

    def test_different_fingerprints_never_coalesce(self, rng):
        op_a = ar_block_toeplitz(16, 4, seed=1)
        op_b = ar_block_toeplitz(16, 4, seed=2)
        pa, pb = engine.plan(op_a), engine.plan(op_b)
        assert pa.cache_key() != pb.cache_key()
        with BatchDispatcher(max_wait_ms=100.0, max_batch_k=8) as disp:
            fa = [disp.submit(pa, rng.standard_normal(pa.order))
                  for _ in range(3)]
            fb = [disp.submit(pb, rng.standard_normal(pb.order))
                  for _ in range(3)]
            ra = [f.result(timeout=10) for f in fa]
            rb = [f.result(timeout=10) for f in fb]
        batches_a = {r.record.batch_id for r in ra}
        batches_b = {r.record.batch_id for r in rb}
        assert batches_a.isdisjoint(batches_b)

    def test_plan_knobs_split_batches(self, op, rng):
        """Same operator, different factorization knobs ⇒ no sharing."""
        p64 = engine.plan(op, assume="spd")
        p32 = engine.plan(op, assume="spd", precision="fp32")
        assert p64.cache_key() != p32.cache_key()
        with BatchDispatcher(max_wait_ms=100.0, max_batch_k=8) as disp:
            f64 = disp.submit(p64, rng.standard_normal(op.order))
            f32 = disp.submit(p32, rng.standard_normal(op.order))
            r64 = f64.result(timeout=10)
            r32 = f32.result(timeout=10)
        assert r64.record.batch_id != r32.record.batch_id

    def test_max_batch_k_caps_panel_width(self, op, rng):
        pl = engine.plan(op)
        with BatchDispatcher(max_wait_ms=200.0, max_batch_k=4) as disp:
            futs = [disp.submit(pl, rng.standard_normal(op.order))
                    for _ in range(10)]
            resps = [f.result(timeout=10) for f in futs]
        assert max(r.record.batch_k for r in resps) <= 4
        assert len({r.record.batch_id for r in resps}) >= 3

    def test_rejects_panels_and_wrong_length(self, op, rhs):
        pl = engine.plan(op)
        with BatchDispatcher() as disp:
            with pytest.raises(ShapeError):
                disp.submit(pl, np.ones((op.order, 2)))
            with pytest.raises(ShapeError):
                disp.submit(pl, rhs[:-1])


class TestDispatcherLimits:
    def test_overload_fast_fails(self, op, rhs):
        pl = engine.plan(op)
        disp = BatchDispatcher(max_wait_ms=10_000.0, max_batch_k=64,
                               max_queue_depth=2)
        try:
            f1 = disp.submit(pl, rhs)
            f2 = disp.submit(pl, rhs)
            with pytest.raises(ServiceOverloadError):
                disp.submit(pl, rhs)
            assert disp.stats().overloads == 1
        finally:
            disp.close(drain=True)
        assert f1.result(5) is not None and f2.result(5) is not None

    def test_deadline_expires_mid_queue(self, op, rhs):
        pl = engine.plan(op)
        disp = BatchDispatcher(max_wait_ms=10_000.0, max_batch_k=64)
        try:
            fut = disp.submit(pl, rhs, timeout_s=0.05)
            with pytest.raises(DeadlineExceededError):
                fut.result(timeout=10)
            deadline = time.perf_counter() + 5
            while (disp.stats().deadline_expirations < 1
                   and time.perf_counter() < deadline):
                time.sleep(0.005)
            stats = disp.stats()
            assert stats.deadline_expirations == 1
            assert stats.queue_depth == 0
        finally:
            disp.close(drain=True)

    def test_deadline_only_covers_queue_phase(self, op, rhs):
        """A generous deadline on an idle service never fires."""
        pl = engine.plan(op)
        with BatchDispatcher(max_wait_ms=0.0) as disp:
            resp = disp.submit(pl, rhs, timeout_s=30.0).result(timeout=10)
        assert resp.record.batch_k == 1

    def test_close_drains_every_admitted_request(self, op, rng):
        pl = engine.plan(op)
        disp = BatchDispatcher(max_wait_ms=60_000.0, max_batch_k=64)
        futs = [disp.submit(pl, rng.standard_normal(op.order))
                for _ in range(6)]
        disp.close(drain=True)
        resps = [f.result(timeout=10) for f in futs]
        assert all(isinstance(r, ServeResponse) for r in resps)
        stats = disp.stats()
        assert stats.completed == 6 and stats.failed == 0

    def test_close_without_drain_fails_queued(self, op, rhs):
        pl = engine.plan(op)
        disp = BatchDispatcher(max_wait_ms=60_000.0, max_batch_k=64)
        fut = disp.submit(pl, rhs)
        disp.close(drain=False)
        with pytest.raises(ServiceClosedError):
            fut.result(timeout=10)

    def test_submit_after_close_raises(self, op, rhs):
        pl = engine.plan(op)
        disp = BatchDispatcher()
        disp.close()
        with pytest.raises(ServiceClosedError):
            disp.submit(pl, rhs)
        disp.close()  # idempotent

    def test_invalid_knobs(self):
        with pytest.raises(ShapeError):
            BatchDispatcher(max_batch_k=0)
        with pytest.raises(ShapeError):
            BatchDispatcher(max_queue_depth=0)
        with pytest.raises(ShapeError):
            BatchDispatcher(max_wait_ms=-1.0)


class TestServeRecord:
    def test_exports_unified_trace_record(self, op, rhs):
        pl = engine.plan(op)
        with BatchDispatcher(max_wait_ms=0.0) as disp:
            resp = disp.submit(pl, rhs).result(timeout=10)
        rec = resp.record.to_record(rec_id=7)
        assert rec["source"] == obs.SOURCE_SERVE
        assert rec["kind"] == obs.KIND_REQUEST
        assert rec["name"] == "serve.request"
        assert rec["attrs"]["batch_k"] == 1
        assert rec["end"] >= rec["start"]

    def test_execution_record_attached(self, op, rng):
        pl = engine.plan(op)
        with BatchDispatcher(max_wait_ms=100.0, max_batch_k=4) as disp:
            futs = [disp.submit(pl, rng.standard_normal(op.order))
                    for _ in range(4)]
            resps = [f.result(timeout=10) for f in futs]
        for r in resps:
            assert r.execution is not None
            assert r.execution.nrhs == r.record.batch_k


class TestServeMetrics:
    def test_counters_and_gauges_published(self, op, rhs):
        obs.enable()
        try:
            pl = engine.plan(op)
            with BatchDispatcher(max_wait_ms=0.0,
                                 max_queue_depth=1) as disp:
                disp.submit(pl, rhs).result(timeout=10)
            text = obs.render_prometheus()
        finally:
            obs.disable()
        assert 'repro_serve_requests_total{status="admitted"}' in text
        assert 'repro_serve_requests_total{status="ok"}' in text
        assert "repro_serve_batches_total" in text
        assert "repro_serve_queue_depth" in text
        assert "repro_serve_batch_occupancy" in text
        assert "repro_serve_latency_p50_seconds" in text
        assert "repro_serve_latency_p99_seconds" in text


class TestSolverService:
    def test_register_solve_stats(self, op, rhs):
        with SolverService(max_wait_ms=0.0) as svc:
            svc.register("toe", op, warm=True)
            assert svc.operators() == ("toe",)
            resp = svc.solve("toe", rhs)
            np.testing.assert_allclose(resp.x, _reference(op, rhs),
                                       atol=1e-10)
            assert resp.record.cache_hit  # warm=True prepaid the factor
            assert svc.stats().completed == 1

    def test_warm_register_fills_the_service_cache(self, op, rhs):
        from repro.engine import FactorizationCache, set_default_cache

        prev = set_default_cache(FactorizationCache())
        try:
            private = FactorizationCache()
            with SolverService(max_wait_ms=0.0, cache=private) as svc:
                svc.register("toe", op, warm=True)
                resp = svc.solve("toe", rhs)
            assert resp.record.cache_hit
            assert private.stats().hits == 1
            assert len(engine.default_cache()) == 0
        finally:
            set_default_cache(prev)

    def test_unknown_operator(self, op, rhs):
        with SolverService() as svc:
            svc.register("toe", op)
            with pytest.raises(InvalidOptionError):
                svc.solve("nope", rhs)

    def test_asolve(self, op, rhs):
        import asyncio

        with SolverService(max_wait_ms=0.0) as svc:
            svc.register("toe", op)
            resp = asyncio.run(svc.asolve("toe", rhs))
        np.testing.assert_allclose(resp.x, _reference(op, rhs),
                                   atol=1e-10)

    def test_registration_plan_kwargs_flow_through(self, op):
        with SolverService() as svc:
            pl = svc.register("toe", op, precision="fp32", assume="spd")
        assert pl.precision == "fp32"


class TestTCP:
    def test_roundtrip_matches_sequential(self, op, rhs):
        with SolverService(max_wait_ms=0.0) as svc:
            svc.register("toe", op, warm=True)
            with start_tcp_server(svc) as handle:
                with TCPClient(handle.host, handle.port) as client:
                    assert client.ops() == ["toe"]
                    resp = client.solve("toe", rhs)
                    np.testing.assert_allclose(
                        resp.x, _reference(op, rhs), atol=1e-10)
                    assert isinstance(resp.record, ServeRecord)
                    stats = client.stats()
                    assert stats.completed == 1

    def test_concurrent_tcp_clients_coalesce(self, op, rng):
        bs = [rng.standard_normal(op.order) for _ in range(6)]
        with SolverService(max_wait_ms=200.0, max_batch_k=6) as svc:
            svc.register("toe", op, warm=True)
            with start_tcp_server(svc) as handle:
                barrier = threading.Barrier(6)

                def one(b):
                    with TCPClient(handle.host, handle.port) as client:
                        barrier.wait(timeout=10)
                        return client.solve("toe", b)

                with concurrent.futures.ThreadPoolExecutor(6) as pool:
                    resps = list(pool.map(one, bs))
        assert len({r.record.batch_id for r in resps}) == 1
        assert all(r.record.batch_k == 6 for r in resps)
        for b, r in zip(bs, resps):
            np.testing.assert_allclose(r.x, _reference(op, b),
                                       atol=1e-10)

    def test_remote_errors_map_to_local_types(self, op, rhs):
        with SolverService(max_wait_ms=0.0) as svc:
            svc.register("toe", op)
            with start_tcp_server(svc) as handle:
                with TCPClient(handle.host, handle.port) as client:
                    with pytest.raises(InvalidOptionError):
                        client.solve("missing-op", rhs)
                    with pytest.raises(ShapeError):
                        client.solve("toe", rhs[:-1])

    def test_metrics_command(self, op, rhs):
        obs.enable()
        try:
            with SolverService(max_wait_ms=0.0) as svc:
                svc.register("toe", op)
                with start_tcp_server(svc) as handle:
                    with TCPClient(handle.host, handle.port) as client:
                        client.solve("toe", rhs)
                        text = client.metrics()
        finally:
            obs.disable()
        assert "repro_serve_requests_total" in text


class TestServeCLI:
    def test_selftest(self, tmp_path, capsys):
        from repro.cli import main
        path = tmp_path / "row.npy"
        np.save(path, kms_toeplitz(32, 0.55).first_scalar_row())
        rc = main(["serve", str(path), "--selftest", "6",
                   "--max-wait-ms", "50", "--explain"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "selftest passed" in out
        assert "solver plan" in out

    def test_explain_mentions_all_plan_axes(self, tmp_path, capsys):
        """--explain names the schedule/transport/precision axes."""
        from repro.cli import main
        path = tmp_path / "row.npy"
        np.save(path, kms_toeplitz(64, 0.55).first_scalar_row())
        rc = main(["solve", str(path), "--nrhs", "1", "--explain",
                   "--nproc", "4", "--schedule", "bulk"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "precision       fp64" in out
        assert "schedule        bulk" in out


class TestAdaptiveWait:
    def test_disabled_budget_is_constant(self, op, rng):
        with BatchDispatcher(max_wait_ms=50.0, max_batch_k=4) as disp:
            pl = engine.plan(op)
            disp.submit(pl, rng.standard_normal(op.order)).result()
            assert disp.stats().current_wait_ms == 50.0

    def test_budget_decays_to_zero_when_idle(self, op, rng):
        disp = BatchDispatcher(max_wait_ms=8.0, max_batch_k=32,
                               adaptive_wait=True)
        try:
            pl = engine.plan(op)
            # Lone requests (far below max_batch_k, nothing queued
            # behind them) halve the budget each dispatch until it
            # snaps to zero.
            for _ in range(12):
                disp.submit(pl, rng.standard_normal(op.order)).result()
            assert disp.stats().current_wait_ms == 0.0
        finally:
            disp.close()

    def test_budget_grows_under_load(self):
        # Unit-test the controller itself: full batches (or a backlog)
        # double the budget back toward the configured maximum.
        disp = BatchDispatcher(max_wait_ms=8.0, max_batch_k=4,
                               adaptive_wait=True)
        try:
            full = disp.max_wait_seconds
            with disp._wake:
                disp._wait_budget = 0.0
                disp._adapt_wait_locked(disp.max_batch_k)
                assert disp._wait_budget == pytest.approx(full / 8)
                disp._adapt_wait_locked(disp.max_batch_k)
                assert disp._wait_budget == pytest.approx(full / 4)
                for _ in range(8):
                    disp._adapt_wait_locked(disp.max_batch_k)
                assert disp._wait_budget == pytest.approx(full)
                # Small batch with an empty queue: decay kicks back in.
                disp._adapt_wait_locked(1)
                assert disp._wait_budget == pytest.approx(full / 2)
        finally:
            disp.close()

    def test_zero_max_wait_stays_zero(self):
        disp = BatchDispatcher(max_wait_ms=0.0, adaptive_wait=True)
        try:
            with disp._wake:
                disp._adapt_wait_locked(disp.max_batch_k)
            assert disp.stats().current_wait_ms == 0.0
        finally:
            disp.close()


class TestServeWarmFromStore:
    def test_restarted_service_loads_from_disk(self, op, rhs, tmp_path):
        from repro.engine import FactorizationCache, set_default_cache
        from repro.engine.cache_store import CacheStore

        store = CacheStore(str(tmp_path / "serve-cache"))
        prev = set_default_cache(FactorizationCache())
        try:
            with SolverService(max_wait_ms=0.0, store=store) as svc:
                svc.register("toe", op, warm=True, cache="persistent")
            assert store.stats().writes == 1

            # "Restart": fresh process-level memory cache, same store.
            set_default_cache(FactorizationCache())
            with SolverService(max_wait_ms=0.0, store=store) as svc:
                svc.register("toe", op, warm=True, cache="persistent")
                assert store.stats().disk_hits == 1
                resp = svc.solve("toe", rhs)
                # First request after restart rides the warm load.
                assert resp.record.cache_hit
                np.testing.assert_allclose(
                    resp.x, _reference(op, rhs), atol=1e-10)
        finally:
            set_default_cache(prev)
