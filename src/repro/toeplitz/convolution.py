"""Tall (block) Toeplitz convolution operators and structured least
squares.

A causal FIR system ``y = H ⊛ x`` is a *tall* block Toeplitz operator
``C`` (the convolution matrix).  Its normal-equations matrix is exactly
symmetric block Toeplitz:

    ``(CᵀC)_{ij} = Σ_s H_sᵀ H_{s+(j−i)} = R(j−i)``,

the (deterministic) autocorrelation of the impulse response — so the
full-rank least-squares problem ``min ‖Cx − y‖₂`` reduces to one SPD
block Schur solve plus FFT products, with optional semi-normal
refinement to recover the accuracy lost to squaring the condition
number.  This is the classical structured route to FIR deconvolution /
equalization with noisy data.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ShapeError
from repro.utils.fingerprint import content_fingerprint
from repro.toeplitz.block_toeplitz import SymmetricBlockToeplitz
from repro.toeplitz.matvec import next_fast_len

__all__ = ["ConvolutionOperator", "toeplitz_lstsq"]


class ConvolutionOperator:
    """Tall block Toeplitz operator of a causal FIR system.

    Parameters
    ----------
    taps : (L, m, m) array_like (or (L,) for the scalar case)
        Impulse response ``H_0 … H_{L−1}``.
    n_in : int
        Number of input (block) samples.  The output has
        ``n_in + L − 1`` block samples ("full" convolution).
    """

    def __init__(self, taps, n_in: int):
        h = np.asarray(taps, dtype=np.float64)
        if h.ndim == 1:
            h = h[:, None, None]
        if h.ndim != 3 or h.shape[1] != h.shape[2]:
            raise ShapeError(
                f"taps must have shape (L, m, m) or (L,), got {h.shape}")
        if n_in <= 0:
            raise ShapeError(f"n_in must be positive, got {n_in}")
        if not np.any(h):
            raise ShapeError("impulse response must be nonzero")
        self.taps = h
        self.length = h.shape[0]
        self.block_size = h.shape[1]
        self.n_in = n_in
        self.n_out = n_in + self.length - 1
        self._nfft = next_fast_len(self.n_out)
        self._hf = np.fft.rfft(h, n=self._nfft, axis=0)

    @property
    def shape(self) -> tuple[int, int]:
        m = self.block_size
        return (self.n_out * m, self.n_in * m)

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """``C x`` — block convolution via FFT, ``O(m² n log n)``."""
        x = np.asarray(x, dtype=np.float64)
        single = x.ndim == 1
        xc = x[:, None] if single else x
        m = self.block_size
        if xc.shape[0] != self.n_in * m:
            raise ShapeError(
                f"x has {xc.shape[0]} rows, expected {self.n_in * m}")
        xb = xc.reshape(self.n_in, m, -1)
        xf = np.fft.rfft(xb, n=self._nfft, axis=0)
        yf = np.einsum("fab,fbr->far", self._hf, xf)
        y = np.fft.irfft(yf, n=self._nfft, axis=0)[:self.n_out]
        y = y.reshape(self.n_out * m, -1)
        return y[:, 0] if single else y

    def rmatvec(self, y: np.ndarray) -> np.ndarray:
        """``Cᵀ y`` — block correlation via FFT."""
        y = np.asarray(y, dtype=np.float64)
        single = y.ndim == 1
        yc = y[:, None] if single else y
        m = self.block_size
        if yc.shape[0] != self.n_out * m:
            raise ShapeError(
                f"y has {yc.shape[0]} rows, expected {self.n_out * m}")
        yb = yc.reshape(self.n_out, m, -1)
        yf = np.fft.rfft(yb, n=self._nfft, axis=0)
        # (Cᵀy)_i = Σ_t H_{t−i}ᵀ y_t : correlate with the conjugate filter
        xf = np.einsum("fba,fbr->far", self._hf.conj(), yf)
        x = np.fft.irfft(xf, n=self._nfft, axis=0)[:self.n_in]
        x = x.reshape(self.n_in * m, -1)
        return x[:, 0] if single else x

    def assemble(self) -> np.ndarray:
        """Dense assembly (the :class:`~repro.engine.StructuredOperator`
        spelling of :meth:`dense`)."""
        return self.dense()

    def fingerprint(self) -> str:
        """Stable content hash of the taps + geometry + structure tag."""
        return content_fingerprint("convolution", self.taps,
                                   meta=(self.n_in,))

    def dense(self) -> np.ndarray:
        """Dense convolution matrix (tests/diagnostics)."""
        m = self.block_size
        out = np.zeros(self.shape)
        for t in range(self.n_out):
            for i in range(self.n_in):
                s = t - i
                if 0 <= s < self.length:
                    out[t * m:(t + 1) * m, i * m:(i + 1) * m] = \
                        self.taps[s]
        return out

    def normal_matrix(self) -> SymmetricBlockToeplitz:
        """``CᵀC`` as a symmetric block Toeplitz matrix.

        ``R(d) = Σ_s H_{s+d}ᵀ H_s`` — SPD whenever the impulse response
        is nonzero (the full convolution operator has full column rank).
        """
        h = self.taps
        L, m = self.length, self.block_size
        blocks = []
        for d in range(min(L, self.n_in)):
            r = np.zeros((m, m))
            for s in range(L - d):
                r += h[s + d].T @ h[s]
            blocks.append(r)
        while len(blocks) < self.n_in:
            blocks.append(np.zeros((m, m)))
        return SymmetricBlockToeplitz(blocks)


def toeplitz_lstsq(taps, y: np.ndarray, n_in: int, *,
                   refine_steps: int = 1) -> np.ndarray:
    """Least squares ``min_x ‖C x − y‖₂`` for the FIR operator ``C``.

    Solves the (exactly block Toeplitz) normal equations with the block
    Schur factorization and applies ``refine_steps`` rounds of
    semi-normal refinement (``x += (CᵀC)⁻¹ Cᵀ(y − Cx)``, all products by
    FFT) to offset the squared conditioning of the normal equations.
    """
    op = ConvolutionOperator(taps, n_in)
    y = np.asarray(y, dtype=np.float64)
    if y.shape[0] != op.n_out * op.block_size:
        raise ShapeError(
            f"y has {y.shape[0]} rows, expected "
            f"{op.n_out * op.block_size}")
    from repro.core.schur_spd import schur_spd_factor
    a = op.normal_matrix()
    fact = schur_spd_factor(a)
    x = fact.solve(op.rmatvec(y))
    for _ in range(max(0, refine_steps)):
        r = y - op.matvec(x)
        x = x + fact.solve(op.rmatvec(r))
    return x
