"""High-level user API.

Most callers want one of four verbs:

* :func:`cholesky` — ``T = Rᵀ R`` for SPD block Toeplitz (Sections 2–6);
* :func:`ldlt` — ``T + δT = Rᵀ D R`` for symmetric indefinite Toeplitz,
  perturbing across singular principal minors (Section 8.2);
* :func:`solve` — direct solve, automatically falling back from the SPD
  path to the indefinite one;
* :func:`solve_refined` — indefinite factorization + iterative refinement
  (the full Section 8 pipeline; the right call whenever the matrix may
  have singular or near-singular principal minors).

All four route through the solver engine (:mod:`repro.engine`): each
call builds a :class:`~repro.engine.SolverPlan` and executes it, so
repeated solves against the same operator reuse the factorization from
the engine's process-wide cache.  Build a plan yourself with
:func:`repro.engine.plan` for full control (machine-tuned ``m_s``,
explicit algorithms, per-call caches).
"""

from __future__ import annotations

import numpy as np

import repro.engine as _engine
from repro.core.refinement import RefinementResult
from repro.core.schur_indefinite import IndefiniteFactorization
from repro.core.schur_spd import SPDFactorization
from repro.errors import InvalidOptionError, ShapeError
from repro.toeplitz.block_toeplitz import SymmetricBlockToeplitz

__all__ = ["cholesky", "ldlt", "solve", "solve_refined"]


def _as_block_toeplitz(t, block_size: int | None) -> SymmetricBlockToeplitz:
    if isinstance(t, SymmetricBlockToeplitz):
        return t
    arr = np.asarray(t, dtype=np.float64)
    if arr.ndim == 1:
        return SymmetricBlockToeplitz.from_first_row(arr)
    if arr.ndim == 2:
        from repro.toeplitz.block_toeplitz import symmetric_from_dense
        if block_size is None:
            raise ShapeError(
                "block_size is required when passing a dense matrix")
        return symmetric_from_dense(arr, block_size)
    raise ShapeError(f"cannot interpret input with ndim={arr.ndim}")


def cholesky(t, *, block_size: int | None = None,
             representation: str = "vy2",
             panel: int | None = None,
             in_place: bool = True,
             precision: str = "fp64") -> SPDFactorization:
    """Cholesky factorization ``T = Rᵀ R`` of an SPD block Toeplitz matrix.

    ``t`` may be a :class:`~repro.toeplitz.SymmetricBlockToeplitz`, a 1-D
    first row (scalar Toeplitz), or a dense symmetric block Toeplitz
    matrix together with ``block_size``.  ``precision`` ∈ {"fp64",
    "fp32"} selects the factorization working precision; a
    reduced-precision factor is only kept when the condition estimate
    admits fp64 refinement recovery (see :mod:`repro.core.precision`).
    """
    bt = _as_block_toeplitz(t, block_size)
    pl = _engine.plan(bt, assume="spd", representation=representation,
                      panel=panel, in_place=in_place, precision=precision)
    return _engine.factor(pl).factorization


def ldlt(t, *, block_size: int | None = None,
         perturb: bool = True,
         delta: float | None = None,
         precision: str = "fp64") -> IndefiniteFactorization:
    """``Rᵀ D R`` factorization of a symmetric (indefinite) block Toeplitz
    matrix, perturbing across singular principal minors when ``perturb``.
    """
    bt = _as_block_toeplitz(t, block_size)
    pl = _engine.plan(bt, assume="indefinite", perturb=perturb,
                      delta=delta, precision=precision)
    return _engine.factor(pl).factorization


def solve(t, b, *, block_size: int | None = None,
          assume: str = "auto",
          representation: str = "vy2",
          panel: int | None = None,
          in_place: bool = True,
          precision: str = "fp64") -> np.ndarray:
    """Solve ``T x = b`` for symmetric block Toeplitz ``T``.

    ``assume`` ∈ {"auto", "spd", "indefinite"}: "auto" tries the SPD path
    and falls back to the indefinite algorithm (plus refinement if it
    perturbed) on breakdown.  The full set of factorization options
    (``panel``, ``in_place``) is forwarded to the plan; repeated solves
    against the same matrix reuse the factorization from the engine's
    default cache (plan with ``repro.engine.plan(..., cache="off")``
    to bypass it).  ``precision`` selects the factorization working
    precision ("fp32" factor + fp64 refinement recovery); the
    returned ``x`` is always float64 at fp64 accuracy whenever the
    conditioning allows it.
    """
    if assume not in ("auto", "spd", "indefinite"):
        raise InvalidOptionError(
            f"unknown assume={assume!r}; expected one of "
            "('auto', 'spd', 'indefinite')")
    bt = _as_block_toeplitz(t, block_size)
    b = np.asarray(b, dtype=np.float64)
    pl = _engine.plan(bt, assume=assume, representation=representation,
                      panel=panel, in_place=in_place,
                      precision=precision)
    return _engine.execute(pl, b).x


def solve_refined(t, b, *, block_size: int | None = None,
                  delta: float | None = None,
                  tol: float | None = None,
                  max_iter: int = 25,
                  keep_history: bool = False,
                  precision: str = "fp64") -> RefinementResult:
    """Section 8 pipeline: perturbed ``Rᵀ D R`` + iterative refinement.

    Always safe for symmetric Toeplitz systems (including singular
    principal minors); returns the full refinement trace.  With
    ``precision="fp32"`` the factorization runs reduced and
    the same refinement loop recovers fp64 (check
    ``result.converged_precision``).
    """
    bt = _as_block_toeplitz(t, block_size)
    pl = _engine.plan(bt, assume="indefinite", delta=delta,
                      precision=precision)
    res = _engine.execute(pl, b, tol=tol, max_iter=max_iter,
                          keep_history=keep_history)
    return res.detail
