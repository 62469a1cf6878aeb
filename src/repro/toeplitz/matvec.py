"""Fast block Toeplitz matrix–vector products via block-circulant embedding.

A block Toeplitz matrix with blocks ``C_d`` on block diagonal ``d`` embeds
into a block circulant of period ``N ≥ 2p − 1``; the product then becomes a
block circular convolution, diagonalized by the FFT:

    ``y_i = Σ_j C_{j−i} x_j  =  (ker ⊛ x)_i``  with ``ker_t = C_{−t}``.

Cost is ``O(m² N log N + m² N)`` versus ``O(n²)`` for the dense product —
this is the workhorse behind iterative refinement residuals (Section 8.1),
where the *original* unperturbed ``T`` must be applied repeatedly.
"""

from __future__ import annotations

import numpy as np

from repro.utils.lintools import as_panel, from_panel

__all__ = ["BlockCirculantEmbedding", "block_toeplitz_matvec",
           "next_fast_len"]

#: Columns :meth:`BlockCirculantEmbedding.matvec` transforms at a time:
#: the serve dispatcher's default panel cap, so a served panel is one tile.
TILE_COLUMNS = 32

#: Radices of the FFT's fast kernels (pocketfft, behind ``numpy.fft``).
_FAST_RADICES = (2, 3, 5, 7, 11)


def next_fast_len(n: int) -> int:
    """Smallest length ``≥ n`` whose prime factors are all at most 11.

    The FFT is fastest at such lengths.  For positive ``n`` this equals
    SciPy's ``scipy.fft.next_fast_len(n)`` (complex transforms, its
    default), without importing :mod:`scipy.fft`, which loads
    :mod:`scipy.special`.
    """
    size = max(int(n), 1)
    while True:
        rest = size
        for radix in _FAST_RADICES:
            while rest % radix == 0:
                rest //= radix
        if rest == 1:
            return size
        size += 1


class BlockCirculantEmbedding:
    """Precomputed FFT factor for repeated block Toeplitz products.

    Parameters
    ----------
    t : SymmetricBlockToeplitz or BlockToeplitz
        The structured matrix to embed.

    Notes
    -----
    The frequency-domain kernel ``K̂`` (shape ``(F, m, m)``) is computed
    once in the constructor; each :meth:`matvec` afterwards costs two FFTs
    plus one batched ``m × m`` multiply per frequency.
    """

    def __init__(self, t):
        p = t.num_blocks
        m = t.block_size
        N = next_fast_len(max(2 * p - 1, 2))
        # C_d for d = 0…p−1 (first block row) and d = −1…−(p−1) (first
        # block column).  SymmetricBlockToeplitz keeps only its first
        # block row, top_blocks, with C_{−d} = C_dᵀ.
        top = getattr(t, "top_blocks", None)
        if top is not None:
            row = np.asarray(top)
            col = row.transpose(0, 2, 1)
        else:
            row, col = t.first_block_row, t.first_block_col
        ker = np.zeros((N, m, m))
        ker[0] = row[0]
        ker[1:p] = col[1:]                  # t = s    → C_{−s}
        ker[N - p + 1:] = row[:0:-1]        # t = N−s ≡ −s → C_{s}
        self._kf = np.fft.rfft(ker, axis=0)
        self._N = N
        self._p = p
        self._m = m
        self._n = p * m

    @property
    def order(self) -> int:
        return self._n

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """Apply the embedded matrix to a vector or an ``n × k`` panel.

        Up to :data:`TILE_COLUMNS` columns share the two FFTs and the
        per-frequency ``m × m`` multiply (batched in the ``einsum``).  A
        wider panel goes through in tiles of that many columns, each
        written into one preallocated result, so the working set beyond
        the result stays a few ``N × m × 32`` arrays however wide the
        panel is.  Every column is transformed on its own, so a tiled
        product is bitwise equal to a one-shot one.  Fortran-ordered and
        non-contiguous panels are normalized once on entry.
        """
        x, single = as_panel(x, self._n, name="operand")
        nrhs = x.shape[1]
        xs = x.reshape(self._p, self._m, nrhs)
        if nrhs <= TILE_COLUMNS:
            # One tile: a copy into a preallocated result would only add
            # a pass over fresh memory.
            y = self._transform(xs)
        else:
            y = np.empty_like(xs)
            for j in range(0, nrhs, TILE_COLUMNS):
                cols = slice(j, j + TILE_COLUMNS)
                y[:, :, cols] = self._transform(xs[:, :, cols])
        return from_panel(y.reshape(self._n, nrhs), single)

    def _transform(self, xs: np.ndarray) -> np.ndarray:
        """The embedded matrix applied to ``p × m × w`` block columns in
        one pair of FFTs."""
        xp = np.zeros((self._N, self._m, xs.shape[2]))
        xp[:self._p] = xs
        yf = np.einsum("fab,fbr->far", self._kf, np.fft.rfft(xp, axis=0))
        return np.fft.irfft(yf, n=self._N, axis=0)[:self._p]

    __call__ = matvec


def block_toeplitz_matvec(t, x: np.ndarray) -> np.ndarray:
    """One-shot fast product ``T x`` (see :class:`BlockCirculantEmbedding`)."""
    return BlockCirculantEmbedding(t).matvec(x)
