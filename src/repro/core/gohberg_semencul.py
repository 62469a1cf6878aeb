"""Gohberg–Semencul inverse representation for symmetric Toeplitz.

The displacement machinery's classical payoff: ``T⁻¹`` of a Toeplitz
matrix is fully described by the single solve ``x = T⁻¹ e₀``.  For
symmetric nonsingular ``T`` with ``x₀ ≠ 0``,

    ``T⁻¹ = (L(x) L(x)ᵀ − L(z) L(z)ᵀ) / x₀``,
    ``z = (0, x_{n−1}, …, x₁)``,

with ``L(v)`` the lower-triangular Toeplitz matrix with first column
``v``.  Triangular Toeplitz products are circular convolutions, so
``T⁻¹ b`` costs ``O(n log n)`` after the one-time ``O(n²)`` Schur solve
— the right tool when ``T⁻¹`` must be applied to many vectors (Kalman
smoothers, covariance whitening pipelines, interpolation weights).
"""

from __future__ import annotations

import numpy as np

from repro.core.precision import (
    precision_of_dtype,
    validate_precision,
    working_dtype,
)
from repro.errors import BreakdownError, ShapeError
from repro.toeplitz.block_toeplitz import SymmetricBlockToeplitz
from repro.toeplitz.matvec import next_fast_len
from repro.utils.lintools import as_panel, from_panel

__all__ = ["ToeplitzInverse", "toeplitz_inverse"]


class _LowerToeplitzOp:
    """``L(v)·`` and ``L(v)ᵀ·`` via FFT (causal / anticausal convolution)."""

    def __init__(self, v: np.ndarray):
        self._n = v.shape[0]
        self._nfft = next_fast_len(2 * self._n - 1)
        self._vf = np.fft.rfft(v, n=self._nfft)

    def apply(self, b: np.ndarray) -> np.ndarray:
        """``L(v) B`` for a vector or an ``n × k`` panel (one batched
        FFT over the columns either way), in ``b``'s dtype."""
        bf = np.fft.rfft(b, n=self._nfft, axis=0)
        out = np.fft.irfft((self._vf if b.ndim == 1 else
                            self._vf[:, None]) * bf,
                           n=self._nfft, axis=0)
        # NumPy < 2 transforms float32 in double precision.
        return out[:self._n].astype(b.dtype, copy=False)

    def apply_t(self, b: np.ndarray) -> np.ndarray:
        """``L(v)ᵀ B``: correlate instead of convolve."""
        rev = b[::-1]
        out = self.apply(rev)
        return out[::-1]


class ToeplitzInverse:
    """``T⁻¹`` as a fast operator (Gohberg–Semencul form).

    Build with :func:`toeplitz_inverse`; apply with :meth:`matvec` or
    ``@``.  Each application costs four FFT convolutions.
    """

    def __init__(self, x: np.ndarray, dtype=None):
        x = np.asarray(x, dtype=np.float64 if dtype is None else dtype)
        if x.ndim != 1:
            raise ShapeError("x must be the 1-D first column of T⁻¹")
        if x[0] == 0.0:
            raise BreakdownError(
                "Gohberg–Semencul form needs (T⁻¹)₀₀ ≠ 0")
        self.x = x
        self._n = x.shape[0]
        z = np.concatenate([x[:1] * 0.0, x[:0:-1]])
        self._lx = _LowerToeplitzOp(x)
        self._lz = _LowerToeplitzOp(z)

    @property
    def order(self) -> int:
        return self._n

    @property
    def dtype(self) -> np.dtype:
        """Storage dtype of the representation (sets application dtype)."""
        return self.x.dtype

    @property
    def precision(self) -> str:
        """Storage precision (``"fp32"`` for a float32 ``x``, else
        ``"fp64"``): an fp32 ``T⁻¹`` applies with single-precision
        error, so the engine refines over it like any reduced factor."""
        return precision_of_dtype(self.x.dtype)

    def matvec(self, b: np.ndarray) -> np.ndarray:
        """``T⁻¹ B`` in ``O(k n log n)`` for a vector or ``n × k``
        panel — each term is one batched convolution over all columns.
        Runs in the representation's storage dtype."""
        panel, single = as_panel(b, self._n, dtype=self.x.dtype)
        term1 = self._lx.apply(self._lx.apply_t(panel))
        term2 = self._lz.apply(self._lz.apply_t(panel))
        return from_panel((term1 - term2) / self.x[0], single)

    def __matmul__(self, b):
        return self.matvec(np.asarray(b))

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Alias of :meth:`matvec` — applying ``T⁻¹`` *is* the solve.

        Gives the representation the factorization-object surface the
        engine and refinement expect (``solve``/``dtype``), so it can
        register as the ``"gs"`` engine algorithm and ride the
        factorization caches.
        """
        return self.matvec(b)

    def dense(self) -> np.ndarray:
        """Dense ``T⁻¹`` (diagnostics; ``O(n²)``)."""
        return self.matvec(np.eye(self._n))


def toeplitz_inverse(t: SymmetricBlockToeplitz, *,
                     precision: str = "fp64") -> ToeplitzInverse:
    """Build the fast ``T⁻¹`` operator for a scalar symmetric Toeplitz.

    One structured solve (``O(n²)``, SPD Schur with indefinite +
    refinement fallback) computes ``x = T⁻¹ e₀``; every subsequent
    application is ``O(n log n)``.

    ``precision`` controls both the solve for ``x`` (reduced-precision
    factor + fp64 refinement recovery, so ``x`` itself is accurate) and
    the *storage* dtype of the representation — ``"fp32"`` halves the
    memory and FFT cost of every later application, which then carries
    single-precision error (see :attr:`ToeplitzInverse.precision`).
    """
    if not isinstance(t, SymmetricBlockToeplitz) or t.block_size != 1:
        raise ShapeError(
            "Gohberg–Semencul inversion implemented for scalar (m = 1) "
            "symmetric Toeplitz matrices")
    from repro.engine import solve
    validate_precision(precision)
    e0 = np.zeros(t.order)
    e0[0] = 1.0
    # Uncached: the ToeplitzInverse is what callers keep (the "gs" plan
    # caches it under its own key), not the O(n²) factor behind x.
    x = solve(t, e0, cache="off", precision=precision).x
    return ToeplitzInverse(x, dtype=working_dtype(precision))
