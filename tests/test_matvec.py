"""Tests for the FFT block-circulant fast matvec."""

import inspect
import tracemalloc

import numpy as np
import pytest

from repro.errors import ShapeError
from repro.serve.dispatcher import BatchDispatcher
from repro.toeplitz import (
    BlockCirculantEmbedding,
    BlockToeplitz,
    SymmetricBlockToeplitz,
    ar_block_toeplitz,
    block_toeplitz_matvec,
    kms_toeplitz,
)
from repro.toeplitz.matvec import TILE_COLUMNS, next_fast_len


def _sym(p, m, seed=0):
    rng = np.random.default_rng(seed)
    blocks = [rng.standard_normal((m, m)) for _ in range(p)]
    blocks[0] = blocks[0] + blocks[0].T
    return SymmetricBlockToeplitz(blocks)


@pytest.mark.parametrize("p,m", [(1, 1), (2, 1), (7, 1), (3, 4), (8, 3),
                                 (16, 2), (5, 5)])
def test_matvec_matches_dense_symmetric(p, m):
    t = _sym(p, m, seed=p * 10 + m)
    x = np.random.default_rng(1).standard_normal(t.order)
    np.testing.assert_allclose(block_toeplitz_matvec(t, x), t.dense() @ x,
                               atol=1e-10)


def test_matvec_matches_dense_general():
    rng = np.random.default_rng(2)
    col = [rng.standard_normal((3, 3)) for _ in range(6)]
    row = [col[0]] + [rng.standard_normal((3, 3)) for _ in range(5)]
    t = BlockToeplitz(col, row)
    x = rng.standard_normal(18)
    np.testing.assert_allclose(t.matvec(x), t.dense() @ x, atol=1e-10)


def test_matvec_multiple_rhs():
    t = _sym(6, 2, seed=3)
    x = np.random.default_rng(4).standard_normal((12, 5))
    np.testing.assert_allclose(t.matvec(x), t.dense() @ x, atol=1e-10)


def test_embedding_reuse_is_consistent():
    t = _sym(9, 2, seed=5)
    emb = BlockCirculantEmbedding(t)
    d = t.dense()
    rng = np.random.default_rng(6)
    for _ in range(4):
        x = rng.standard_normal(18)
        np.testing.assert_allclose(emb(x), d @ x, atol=1e-10)


def test_embedding_order_property():
    t = _sym(4, 3)
    assert BlockCirculantEmbedding(t).order == 12


def test_wrong_length_rejected():
    t = _sym(4, 2)
    with pytest.raises(ShapeError):
        t.matvec(np.ones(7))


def test_large_scalar_matvec_accuracy():
    t = kms_toeplitz(512, 0.8)
    x = np.random.default_rng(7).standard_normal(512)
    y = t.matvec(x)
    np.testing.assert_allclose(y, t.dense() @ x, rtol=1e-11, atol=1e-9)


def test_matvec_identity():
    t = SymmetricBlockToeplitz.identity(5, 3)
    x = np.random.default_rng(8).standard_normal(15)
    np.testing.assert_allclose(t.matvec(x), x, atol=1e-12)


def test_matvec_linear():
    t = _sym(5, 2, seed=9)
    rng = np.random.default_rng(10)
    x, y = rng.standard_normal(10), rng.standard_normal(10)
    np.testing.assert_allclose(t.matvec(2 * x - 3 * y),
                               2 * t.matvec(x) - 3 * t.matvec(y),
                               atol=1e-9)


def _general(p, m, seed=0):
    rng = np.random.default_rng(seed)
    col = [rng.standard_normal((m, m)) for _ in range(p)]
    row = [col[0]] + [rng.standard_normal((m, m)) for _ in range(p - 1)]
    return BlockToeplitz(col, row)


def _kernel_by_blocks(t):
    """The embedding's FFT kernel built one ``t.block`` call per block."""
    p, m = t.num_blocks, t.block_size
    N = next_fast_len(max(2 * p - 1, 2))
    ker = np.zeros((N, m, m))
    ker[0] = t.block(0, 0)
    for s in range(1, p):
        ker[s] = t.block(s, 0)          # C_{−s}
        ker[N - s] = t.block(0, s)      # C_{s}
    return np.fft.rfft(ker, axis=0)


@pytest.mark.parametrize("make", [_sym, _general])
@pytest.mark.parametrize("p,m", [(1, 1), (1, 3), (2, 1), (2, 4), (7, 1),
                                 (8, 3), (5, 2), (16, 2)])
def test_kernel_matches_per_block_construction(make, p, m):
    t = make(p, m, seed=p * 10 + m)
    np.testing.assert_array_equal(BlockCirculantEmbedding(t)._kf,
                                  _kernel_by_blocks(t))


def _one_shot(emb, x):
    """The whole panel through one transform, untiled."""
    p, m, N = emb._p, emb._m, emb._N
    k = x.shape[1]
    xp = np.zeros((N, m, k))
    xp[:p] = x.reshape(p, m, k)
    yf = np.einsum("fab,fbr->far", emb._kf, np.fft.rfft(xp, axis=0))
    return np.fft.irfft(yf, n=N, axis=0)[:p].reshape(p * m, k)


@pytest.mark.parametrize("make", [_sym, _general])
@pytest.mark.parametrize("k", [1, 31, 32, 33, 257])
def test_tiled_product_is_bitwise_the_one_shot(make, k):
    t = make(12, 3, seed=k)
    emb = BlockCirculantEmbedding(t)
    x = np.random.default_rng(k).standard_normal((t.order, k))
    expected = _one_shot(emb, x)
    np.testing.assert_array_equal(emb.matvec(x), expected)
    np.testing.assert_array_equal(emb.matvec(np.asfortranarray(x)),
                                  expected)
    if k == 1:
        np.testing.assert_array_equal(emb.matvec(x[:, 0]), expected[:, 0])


def test_tile_is_the_dispatchers_default_panel():
    cap = inspect.signature(BatchDispatcher).parameters["max_batch_k"]
    assert TILE_COLUMNS == cap.default


def test_wide_product_allocates_tiles_not_panels():
    """A k = 256 product at n = 2048 allocates its result and a few
    tile-sized arrays; untiled, it peaked at four ``N × m × k`` arrays
    (32 MiB against 7 MiB)."""
    t = ar_block_toeplitz(512, 4, seed=0)
    emb = BlockCirculantEmbedding(t)
    x = np.random.default_rng(0).standard_normal((t.order, 256))
    tracemalloc.start()
    try:
        y = emb.matvec(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    tile = emb._kf.shape[0] * 4 * TILE_COLUMNS * 16     # complex, F × m × 32
    assert peak <= y.nbytes + 5 * tile, (peak, y.nbytes, tile)
