"""Tests for the packed (RFP) storage of the Schur factor ``R``."""

import mmap
import multiprocessing
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
import scipy.linalg as sla
from scipy.linalg import lapack

from repro.core import schur_indefinite_factor, schur_spd_factor
from repro.core import packed
from repro.core.packed import (
    MAPPED_MIN_BYTES,
    PackedUpper,
    mapped_buffers,
    mapped_zeros,
    packed_size,
)
from repro.errors import ShapeError
from repro.parallel import transport
from repro.toeplitz import (
    ar_block_toeplitz,
    indefinite_toeplitz,
    singular_minor_toeplitz,
)

ORDERS = [1, 2, 5, 8, 37, 64]
DTYPES = [np.float64, np.float32]
RTOL = {np.float64: 1e-12, np.float32: 2e-4}


def _upper(n, dtype, seed=0):
    rng = np.random.default_rng(seed)
    r = np.triu(rng.standard_normal((n, n))) + n * np.eye(n)
    return r.astype(dtype)


def _packed(r):
    p = PackedUpper.zeros(r.shape[0], dtype=r.dtype)
    p.write_rows(0, r)
    return p


class TestLayout:
    @pytest.mark.parametrize("n", ORDERS)
    @pytest.mark.parametrize("dtype", DTYPES)
    def test_matches_lapack_rfp(self, n, dtype):
        r = _upper(n, dtype)
        trttf = (lapack.dtrttf if dtype == np.float64 else lapack.strttf)
        arf, info = trttf(np.asfortranarray(r), transr="T", uplo="U")
        assert info == 0
        p = _packed(r)
        assert p.data.shape == (packed_size(n),)
        np.testing.assert_array_equal(p.data, arf)
        np.testing.assert_array_equal(p.dense, r)
        np.testing.assert_array_equal(p.diagonal(), np.diag(r))

    @pytest.mark.parametrize("n,h", [(37, 4), (64, 8), (36, 5), (8, 3)])
    def test_block_rows_drop_residue_below_diagonal(self, n, h):
        """Rows arrive in blocks that may straddle the ``n // 2`` split;
        whatever lies below the diagonal of a block is not stored."""
        r = _upper(n, np.float64)
        noisy = r + np.tril(np.full((n, n), 1e-16), -1)
        p = PackedUpper.zeros(n)
        for start in range(0, n, h):
            p.write_rows(start, noisy[start:start + h, start:])
        np.testing.assert_array_equal(p.data, _packed(r).data)
        assert np.all(np.tril(p.dense, -1) == 0)

    def test_rejects_wrong_buffer(self):
        with pytest.raises(ShapeError):
            PackedUpper(np.zeros(10), 5)
        with pytest.raises(ShapeError):
            PackedUpper(np.zeros(15, dtype=np.int64), 5)


def _noisy(r):
    """``r`` with junk below the diagonal, which writes must drop."""
    return r + np.tril(np.full(r.shape, 7.0, dtype=r.dtype), -1)


def _write_block_columns(handle, n, m, first, step):
    """Store block columns ``first, first + step, …`` of ``_upper(n)``
    into a shared packed buffer, one block at a time (fork target)."""
    att = transport.attach(handle)
    try:
        r = _noisy(_upper(n, np.dtype(handle.dtype)))
        p = PackedUpper(att.array, n)
        for c0 in range(first * m, n, step * m):
            for r0 in range(0, c0 + m, m):
                p.write_block(r0, c0, r[r0:r0 + m, c0:c0 + m])
    finally:
        att.close()


class TestBlockIO:
    """Block writes and reads against a dense oracle.  With ``n // 2``
    not a multiple of ``m`` (n = 40, 41, 37 at m = 8 or 3), blocks
    straddle the RFP split."""

    @pytest.mark.parametrize("n,m", [(40, 8), (41, 8), (37, 3), (64, 8),
                                     (8, 3), (1, 1)])
    @pytest.mark.parametrize("dtype", DTYPES)
    def test_round_trip_on_shared_memory(self, n, m, dtype):
        r = _upper(n, dtype)
        with transport.session() as sess:
            buf, _ = sess.ndarray((packed_size(n),), dtype=dtype)
            p = PackedUpper(buf, n)
            noisy = _noisy(r)
            for r0 in range(0, n, m):
                for c0 in range(0, n, m):
                    p.write_block(r0, c0, noisy[r0:r0 + m, c0:c0 + m])
            np.testing.assert_array_equal(buf, _packed(r).data)
            for r0 in range(0, n, m):
                h = min(m, n - r0)
                for cols in (np.arange(n), np.arange(r0, n),
                             np.arange(r0 + h, n)[::2]):
                    np.testing.assert_array_equal(
                        p.block_row(r0, h, cols), r[r0:r0 + h, cols])
                strip = p.block_column(r0, h)
                np.testing.assert_array_equal(strip, r[:r0, r0:r0 + h])
                assert not strip.flags.writeable or not np.shares_memory(
                    strip, buf)

    @pytest.mark.parametrize("n,m", [(40, 8), (41, 8), (37, 3), (64, 8)])
    def test_write_columns_matches_dense(self, n, m):
        """Row strips right of the diagonal block, written through
        ``write_columns``: every block column, or every other one."""
        r = _upper(n, np.float64)
        for every in (1, 2):
            p = PackedUpper.zeros(n)
            want = np.zeros_like(r)
            for r0 in range(0, n, m):
                h = min(m, n - r0)
                p.write_block(r0, r0, r[r0:r0 + h, r0:r0 + h])
                want[r0:r0 + h, r0:r0 + h] = r[r0:r0 + h, r0:r0 + h]
                cols = np.concatenate([np.arange(c, min(c + m, n))
                                       for c in range(r0 + h, n, every * m)]
                                      + [np.arange(0)]).astype(np.intp)
                p.write_columns(r0, cols, r[r0:r0 + h, cols])
                want[r0:r0 + h, cols] = r[r0:r0 + h, cols]
            np.testing.assert_array_equal(p.dense, want)

    @pytest.mark.parametrize("n,m", [(40, 8), (41, 8)])
    @pytest.mark.parametrize("dtype", DTYPES)
    def test_forked_writers_match_serial_rows(self, n, m, dtype):
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("needs the fork start method")
        ctx = multiprocessing.get_context("fork")
        with transport.session() as sess:
            buf, handle = sess.ndarray((packed_size(n),), dtype=dtype)
            procs = [ctx.Process(target=_write_block_columns,
                                 args=(handle, n, m, first, 2))
                     for first in (0, 1)]
            for pr in procs:
                pr.start()
            for pr in procs:
                pr.join(timeout=60)
                assert not pr.is_alive() and pr.exitcode == 0
            serial = PackedUpper.zeros(n, dtype=dtype)
            serial.write_rows(0, _noisy(_upper(n, dtype)))
            assert buf.tobytes() == serial.data.tobytes()


class TestSolve:
    @pytest.mark.parametrize("n", ORDERS)
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("trans", [False, True])
    @pytest.mark.parametrize("shape", ["vector", "column", "panel"])
    def test_matches_dense_triangular_solve(self, n, dtype, trans, shape):
        r = _upper(n, dtype)
        rng = np.random.default_rng(1)
        b = {"vector": rng.standard_normal(n),
             "column": rng.standard_normal((n, 1)),
             "panel": rng.standard_normal((n, 5))}[shape].astype(dtype)
        before = b.copy()
        x = _packed(r).solve(b, trans=trans)
        ref = sla.solve_triangular(r.astype(np.float64), before,
                                   trans=int(trans))
        assert x.shape == b.shape and x.dtype == dtype
        np.testing.assert_allclose(x, ref, rtol=RTOL[dtype],
                                   atol=RTOL[dtype])
        np.testing.assert_array_equal(b, before)   # input untouched

    @pytest.mark.parametrize("n", [8, 9])
    def test_overwrite_runs_in_place(self, n):
        r = _upper(n, np.float64)
        b = np.asfortranarray(np.random.default_rng(2).standard_normal(
            (n, 3)))
        ref = sla.solve_triangular(r, b)
        x = _packed(r).solve(b, overwrite_b=True)
        assert np.shares_memory(x, b)
        np.testing.assert_allclose(b, ref, rtol=1e-12)

    @pytest.mark.parametrize("n", [64, 37])
    def test_read_only_memory_map(self, n, tmp_path):
        r = _upper(n, np.float64)
        path = tmp_path / "r.bin"
        _packed(r).data.tofile(path)
        mapped = np.memmap(path, dtype=np.float64, mode="r",
                           shape=(packed_size(n),))
        p = PackedUpper(mapped, n)
        b = np.random.default_rng(3).standard_normal((n, 4))
        for trans in (False, True):
            np.testing.assert_allclose(
                p.solve(b, trans=trans),
                sla.solve_triangular(r, b, trans=int(trans)), rtol=1e-12)
            np.testing.assert_allclose(
                p.solve(b[:, 0], trans=trans),
                sla.solve_triangular(r, b[:, 0], trans=int(trans)),
                rtol=1e-12)
        np.testing.assert_array_equal(np.asarray(mapped), _packed(r).data)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            _packed(_upper(6, np.float64)).solve(np.ones(5))


def _factor_cases(n):
    return [(schur_spd_factor, ar_block_toeplitz(n // 8, 8, seed=0)),
            (schur_indefinite_factor, indefinite_toeplitz(n, seed=0))]


class TestFactorStorage:
    @pytest.mark.parametrize("factor,t", _factor_cases(96)
                             + [(schur_indefinite_factor,
                                 singular_minor_toeplitz(24))])
    def test_r_is_exactly_triangular_and_memoized(self, factor, t):
        fact = factor(t)
        r = fact.r
        assert r is fact.r                      # unpacked once, then kept
        assert not r.flags.writeable
        assert np.all(np.tril(r, -1) == 0)
        np.testing.assert_array_equal(np.diag(r), fact.packed.diagonal())
        assert fact.packed.data.nbytes == packed_size(t.order) * 8

    @pytest.mark.parametrize("factor,t", _factor_cases(1024))
    def test_factor_path_allocates_no_dense_square(self, factor, t):
        n = t.order
        tracemalloc.start()
        try:
            fact = factor(t)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.6 * n * n * 8, peak / (n * n * 8)
        b = np.ones(n)
        np.testing.assert_allclose(fact.reconstruct() @ fact.solve(b), b,
                                   atol=1e-8)


#: Eight fresh n = 2048 operators through a 2-entry cache; prints the
#: resident growth over the run in factor-buffer units.
_CACHE_CHURN = """
import numpy as np
import repro.engine as engine
from repro.core.packed import packed_size
from repro.engine import FactorizationCache
from repro.toeplitz import ar_block_toeplitz

def rss():
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) * 1024

cache = FactorizationCache(max_entries=2)
ops = [ar_block_toeplitz(512, 4, seed=s) for s in range(8)]
b = np.ones(2048)
warm = ar_block_toeplitz(16, 4, seed=99)
engine.solve(warm, np.ones(warm.order), cache=cache)
base = rss()
for op in ops:
    engine.solve(op, b, cache=cache)
print((rss() - base) / (packed_size(2048) * 8))
"""


requires_mmap = pytest.mark.skipif(not hasattr(mmap, "MAP_PRIVATE"),
                                   reason="no private anonymous mappings")


def _mapped(a: np.ndarray) -> bool:
    """Whether ``a`` is a view of an anonymous mapping."""
    while isinstance(a, np.ndarray):
        a = a.base
    return isinstance(a, memoryview) and isinstance(a.obj, mmap.mmap)


class TestMappedBuffers:
    def test_heap_outside_the_scope_or_below_the_cutoff(self):
        words = MAPPED_MIN_BYTES // 8
        with mapped_buffers():
            small = mapped_zeros(words - 1)
        for a in (mapped_zeros(words), small):
            assert not _mapped(a) and not a.any()

    @requires_mmap
    @pytest.mark.parametrize("shape,dtype", [
        (MAPPED_MIN_BYTES // 8, np.float64),
        ((1024, 2048), np.float32),
        ((600, 900), np.complex128)])
    def test_large_arrays_are_zeroed_writable_mappings(self, shape, dtype):
        with mapped_buffers():
            a = mapped_zeros(shape, dtype)
        assert _mapped(a)
        assert a.shape == np.zeros(shape).shape and a.dtype == dtype
        assert a.flags.c_contiguous and a.flags.writeable
        assert not a.any()
        view = a.reshape(-1)[1:]
        del a
        view[:] = 1                 # the view keeps the mapping alive
        assert view.sum() == view.size

    def test_scope_nests_and_resets(self):
        with mapped_buffers():
            with mapped_buffers(False):
                assert not packed._mapping.get()
            assert packed._mapping.get()
        assert not packed._mapping.get()

    @requires_mmap
    @pytest.mark.parametrize("cache", ["memory", "off"])
    def test_engine_maps_only_what_its_cache_holds(self, monkeypatch,
                                                   cache):
        from repro import engine

        monkeypatch.setattr(packed, "MAPPED_MIN_BYTES", 4096)
        t = ar_block_toeplitz(32, 4, seed=1)
        held = engine.FactorizationCache() if cache == "memory" else None
        fres = engine.factor(engine.plan(t, cache=cache), cache=held)
        data = fres.factorization.packed.data
        assert _mapped(data) is (held is not None)
        direct = schur_spd_factor(t).packed.data
        assert not _mapped(direct)
        np.testing.assert_array_equal(data, direct)

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="reads /proc/self/status")
    def test_dropped_factors_return_to_the_os(self):
        """With two factors cached, resident memory grows by two factor
        buffers, not by the three a heap that keeps dropped ones holds."""
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
                   OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + [p for p in (env.get("PYTHONPATH"),) if p])
        proc = subprocess.run([sys.executable, "-c", _CACHE_CHURN],
                              capture_output=True, text=True, env=env,
                              timeout=300)
        assert proc.returncode == 0, proc.stderr
        grown = float(proc.stdout)
        assert grown <= 2.5, grown
