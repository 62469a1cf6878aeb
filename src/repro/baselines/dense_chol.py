"""Dense LAPACK reference solvers (via SciPy).

``O(n³)`` baselines used to validate accuracy and to show the structured
algorithms' complexity advantage in the benchmark crossover tables.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg as sla

from repro.errors import NotPositiveDefiniteError, ShapeError
from repro.toeplitz.block_toeplitz import SymmetricBlockToeplitz

__all__ = ["dense_cholesky_solve", "dense_ldl_solve", "dense_cholesky"]


def _dense(t) -> np.ndarray:
    if isinstance(t, SymmetricBlockToeplitz):
        return t.dense()
    return np.asarray(t, dtype=np.float64)


def dense_cholesky(t) -> np.ndarray:
    """Upper-triangular ``R`` with ``T = Rᵀ R`` via LAPACK ``potrf``."""
    a = _dense(t)
    try:
        return sla.cholesky(a, lower=False, check_finite=False)
    except sla.LinAlgError as exc:
        raise NotPositiveDefiniteError(str(exc)) from exc


def dense_cholesky_solve(t, b: np.ndarray) -> np.ndarray:
    """Solve SPD ``T x = b`` densely (``cho_factor``/``cho_solve``)."""
    a = _dense(t)
    b = np.asarray(b, dtype=np.float64)
    if b.shape[0] != a.shape[0]:
        raise ShapeError(f"b has {b.shape[0]} rows, expected {a.shape[0]}")
    try:
        factor = sla.cho_factor(a, check_finite=False)
    except sla.LinAlgError as exc:
        raise NotPositiveDefiniteError(str(exc)) from exc
    return sla.cho_solve(factor, b, check_finite=False)


def dense_ldl_solve(t, b: np.ndarray) -> np.ndarray:
    """Solve symmetric indefinite ``T x = b`` densely via LAPACK LDLᵀ
    (Bunch–Kaufman pivoting — handles singular principal minors without
    perturbation, at ``O(n³)``)."""
    a = _dense(t)
    b = np.asarray(b, dtype=np.float64)
    if b.shape[0] != a.shape[0]:
        raise ShapeError(f"b has {b.shape[0]} rows, expected {a.shape[0]}")
    lu, d, perm = sla.ldl(a, check_finite=False)
    # Solve L D Lᵀ x = b with the permutation folded into L.
    lp = lu[perm]
    y = sla.solve_triangular(lp, b[perm], lower=True, unit_diagonal=True,
                             check_finite=False)
    # D is block diagonal with 1×1 / 2×2 blocks.
    z = np.linalg.solve(d, y)
    w = sla.solve_triangular(lp.T, z, lower=False, unit_diagonal=True,
                             check_finite=False)
    x = np.empty_like(w)
    x[perm] = w
    return x
