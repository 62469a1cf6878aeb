"""Circulant preconditioners for Toeplitz CG (Strang / T. Chan).

The other classical route to Toeplitz systems: preconditioned conjugate
gradients with a circulant approximation of ``T``, invertible in
``O(n log n)`` by FFT.  Included as the canonical iterative baseline
next to the paper's direct method — the benchmark harness compares
iteration counts and per-iteration work against the Schur factorization
and the Section 8 refinement scheme.

Two classical choices for scalar symmetric Toeplitz ``T = [t_{|i−j|}]``:

* **Strang**: copy the central diagonals —
  ``c_k = t_k`` for ``k ≤ n/2``, ``c_k = t_{n−k}`` beyond;
* **T. Chan**: the Frobenius-optimal circulant —
  ``c_k = ((n−k) t_k + k t_{n−k}) / n``.

Both are SPD for large classes of SPD Toeplitz matrices and give
clustered spectra (superlinear CG convergence) for Wiener-class symbols.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.pcg import PCGResult, pcg
from repro.errors import ShapeError
from repro.toeplitz.block_toeplitz import SymmetricBlockToeplitz

__all__ = [
    "CirculantPreconditioner",
    "strang_preconditioner",
    "tchan_preconditioner",
    "circulant_pcg",
]


class CirculantPreconditioner:
    """SPD circulant operator ``C`` applied via FFT (``solve`` = C⁻¹·).

    Parameters
    ----------
    first_column : (n,) array
        First column of the circulant.
    min_eig : float
        Eigenvalues (the DFT of the first column) below this floor are
        clamped, keeping the preconditioner SPD even when the recipe
        produces a (near-)singular circulant.
    """

    def __init__(self, first_column: np.ndarray, *,
                 min_eig: float = 1e-12):
        c = np.asarray(first_column, dtype=np.float64)
        if c.ndim != 1:
            raise ShapeError("first_column must be 1-D")
        eig = np.fft.rfft(c)
        lam = eig.real  # symmetric circulant ⇒ real spectrum
        scale = float(np.max(np.abs(lam))) or 1.0
        self.eigenvalues = np.maximum(lam, min_eig * scale)
        self._n = c.shape[0]
        self.first_column = c

    @property
    def order(self) -> int:
        return self._n

    def _diagonalized(self, b: np.ndarray, op) -> np.ndarray:
        """``F⁻¹ op(F b, λ)`` along axis 0, for a vector or a panel."""
        b = np.asarray(b, dtype=np.float64)
        if b.shape[0] != self._n:
            raise ShapeError(f"b has {b.shape[0]} rows, expected {self._n}")
        lam = self.eigenvalues.reshape((-1,) + (1,) * (b.ndim - 1))
        return np.fft.irfft(op(np.fft.rfft(b, n=self._n, axis=0), lam),
                            n=self._n, axis=0)

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """``C X`` via FFT, for a vector or an ``n × k`` panel."""
        return self._diagonalized(x, np.multiply)

    def solve(self, b: np.ndarray) -> np.ndarray:
        """``C⁻¹ B`` via FFT — ``O(n log n)`` per column."""
        return self._diagonalized(b, np.divide)

    def dense(self) -> np.ndarray:
        """Dense circulant (diagnostics)."""
        c = self.first_column
        n = self._n
        return np.array([[c[(i - j) % n] for j in range(n)]
                         for i in range(n)])


def _first_row(t) -> np.ndarray:
    if isinstance(t, SymmetricBlockToeplitz):
        if t.block_size != 1:
            raise ShapeError(
                "circulant preconditioners implemented for scalar "
                "(m = 1) symmetric Toeplitz matrices")
        return t.first_scalar_row()
    row = np.asarray(t, dtype=np.float64)
    if row.ndim != 1:
        raise ShapeError("expected a scalar Toeplitz matrix or first row")
    return row


def strang_preconditioner(t) -> CirculantPreconditioner:
    """Strang's circulant: copy the central band of ``T``."""
    row = _first_row(t)
    n = row.shape[0]
    c = np.empty(n)
    half = n // 2
    c[:half + 1] = row[:half + 1]
    for k in range(half + 1, n):
        c[k] = row[n - k]
    return CirculantPreconditioner(c)


def tchan_preconditioner(t) -> CirculantPreconditioner:
    """T. Chan's Frobenius-optimal circulant approximation."""
    row = _first_row(t)
    n = row.shape[0]
    k = np.arange(n)
    c = ((n - k) * row + k * row[(n - k) % n]) / n
    return CirculantPreconditioner(c)


def circulant_pcg(t: SymmetricBlockToeplitz, b: np.ndarray, *,
                  kind: str = "strang",
                  tol: float = 1e-12,
                  max_iter: int | None = None) -> PCGResult:
    """CG on a scalar SPD Toeplitz system with a circulant preconditioner.

    ``O(n log n)`` per iteration (FFT matvec + FFT preconditioner solve);
    iteration counts are small for Wiener-class symbols — the classic
    comparison point for direct ``O(n²)`` methods.
    """
    if kind == "strang":
        pre = strang_preconditioner(t)
    elif kind == "tchan":
        pre = tchan_preconditioner(t)
    else:
        raise ShapeError(f"unknown preconditioner kind {kind!r}")
    return pcg(t, b, preconditioner=pre, tol=tol, max_iter=max_iter)
