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


def _diagonal_block(t, d: int) -> np.ndarray:
    """Block on block diagonal ``d`` (``d = j − i``) of matrix-like ``t``."""
    if d >= 0:
        # SymmetricBlockToeplitz stores the first block row in top_blocks;
        # BlockToeplitz in first_block_row.
        row = getattr(t, "top_blocks", None)
        if row is None:
            row = t.first_block_row
        return row[d]
    row = getattr(t, "top_blocks", None)
    if row is not None:
        return row[-d].T
    return t.first_block_col[-d]


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
        ker = np.zeros((N, m, m))
        ker[0] = _diagonal_block(t, 0)
        for s in range(1, p):
            ker[s] = _diagonal_block(t, -s)       # t = s  → C_{−s}
            ker[N - s] = _diagonal_block(t, s)    # t = N−s ≡ −s → C_{s}
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

        All ``k`` columns share the two FFTs and the per-frequency
        ``m × m`` multiply (batched in the ``einsum``), so a panel costs
        barely more than ``k`` times the transform's pointwise stage —
        never ``k`` separate embeddings.  Fortran-ordered and
        non-contiguous panels are normalized once on entry.
        """
        x, single = as_panel(x, self._n, name="operand")
        nrhs = x.shape[1]
        xp = np.zeros((self._N, self._m, nrhs))
        xp[:self._p] = x.reshape(self._p, self._m, nrhs)
        xf = np.fft.rfft(xp, axis=0)
        yf = np.einsum("fab,fbr->far", self._kf, xf)
        y = np.fft.irfft(yf, n=self._N, axis=0)[:self._p]
        return from_panel(y.reshape(self._n, nrhs), single)

    __call__ = matvec


def block_toeplitz_matvec(t, x: np.ndarray) -> np.ndarray:
    """One-shot fast product ``T x`` (see :class:`BlockCirculantEmbedding`)."""
    return BlockCirculantEmbedding(t).matvec(x)
