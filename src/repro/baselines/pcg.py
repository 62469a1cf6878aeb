"""Preconditioned conjugate gradients with a factored preconditioner.

The Section 8 comparator: Concus & Saylor use the perturbed direct
factorization as a *preconditioner* for CG on indefinite symmetric
Toeplitz systems.  The paper's refinement scheme does strictly less work
per iteration (one factored solve + one fast matvec versus the same plus
the CG vector recurrences); the benchmark harness counts both.

This is a from-scratch PCG with work counters, using the FFT fast matvec
for the operator.  With the ``Rᵀ D R`` preconditioner the preconditioned
operator is a tiny perturbation of the identity, so CG converges in a
handful of iterations even for (mildly) indefinite ``T``.

There is one CG loop, :func:`pcg_block` (O'Leary's block CG): the whole
panel shares each fast matvec, each factored preconditioner solve and
the ``k × k`` recurrence algebra, so the per-iteration work is level-3
shaped.  Converged columns are deflated out of the active block, and
the small Gram systems are solved rank-revealingly (eigenvalue
thresholding) so near-dependent search directions degrade gracefully
instead of dividing by ~0 — the classical block-CG breakdown mode.
:func:`pcg` runs it on a vector as a one-column panel.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

import repro.obs as obs
from repro.errors import ConvergenceError, InvalidOptionError, ShapeError
from repro.toeplitz.block_toeplitz import SymmetricBlockToeplitz
from repro.toeplitz.matvec import BlockCirculantEmbedding
from repro.utils.lintools import as_panel

__all__ = ["PCGResult", "BlockPCGResult", "pcg", "pcg_block"]


@dataclass
class PCGResult:
    """Solution and work accounting for one PCG run."""

    x: np.ndarray
    iterations: int
    converged: bool
    residual_norms: list[float] = field(default_factory=list)
    #: number of operator applications (fast matvecs)
    matvecs: int = 0
    #: number of preconditioner solves
    precond_solves: int = 0


@dataclass
class BlockPCGResult:
    """Solution and work accounting for one block-PCG run.

    ``matvecs`` / ``precond_solves`` count *batched calls* (one panel
    application each); ``matvec_columns`` / ``precond_columns`` count
    the column-equivalents those calls carried, so
    ``matvec_columns / matvecs`` is the achieved average panel width.
    """

    x: np.ndarray
    iterations: int
    converged: bool
    #: worst ‖r_j‖₂ over the columns that entered each iteration, taken
    #: before deflation (index 0: the initial residual)
    residual_norms: list[float] = field(default_factory=list)
    nrhs: int = 0
    matvecs: int = 0
    precond_solves: int = 0
    matvec_columns: int = 0
    precond_columns: int = 0
    #: iteration at which each column's residual passed the tolerance
    #: (0 = converged at the initial guess; max_iter+… never means more
    #: than ``iterations``); -1 for columns that did not converge
    per_column_iterations: np.ndarray | None = None
    #: number of rank-deficient Gram systems handled by thresholding
    deflations: int = 0


def pcg(t: SymmetricBlockToeplitz, b: np.ndarray, *,
        preconditioner=None,
        tol: float = 1e-12, max_iter: int | None = None,
        raise_on_fail: bool = False) -> PCGResult:
    """Solve ``T x = b`` by (preconditioned) conjugate gradients.

    Runs :func:`pcg_block` on ``b`` as a one-column panel and returns
    its result with a 1-D ``x``.

    Parameters
    ----------
    t : SymmetricBlockToeplitz
        System matrix (applied via the FFT embedding).
    b : array
        A single right-hand-side *vector*; for an ``n × k`` panel use
        :func:`pcg_block`.
    preconditioner : object with ``solve``, optional
        E.g. an :class:`~repro.core.schur_indefinite.IndefiniteFactorization`
        of ``T + δT``.
    tol : float
        Relative residual stopping tolerance ``‖r‖ ≤ tol·‖b‖``.
    max_iter : int
        Iteration cap (default ``2n``).
    raise_on_fail : bool
        Raise :class:`~repro.errors.ConvergenceError` instead of
        returning ``converged=False``.
    """
    n = t.order
    b = np.asarray(b, dtype=np.float64)
    if b.ndim == 2:
        raise InvalidOptionError(
            f"pcg() takes a single right-hand-side vector; for a panel "
            f"of {b.shape[1]} columns use pcg_block(), which batches "
            "the matvecs, preconditioner solves and CG recurrences "
            "across the panel")
    if b.shape != (n,):
        raise ShapeError(f"b must have shape ({n},), got {b.shape}")
    res = pcg_block(t, b[:, None], preconditioner=preconditioner, tol=tol,
                    max_iter=max_iter, raise_on_fail=raise_on_fail)
    return PCGResult(x=res.x[:, 0], iterations=res.iterations,
                     converged=res.converged,
                     residual_norms=res.residual_norms,
                     matvecs=res.matvecs,
                     precond_solves=res.precond_solves)


def _solve_gram_rr(g: np.ndarray, s: np.ndarray,
                   rtol: float = 1e-12) -> tuple[np.ndarray, bool]:
    """Rank-revealing solve of the small Gram system ``G A = S``.

    ``G`` is symmetric (``Pᵀ(AP)`` or ``RᵀZ``); near-dependent search
    directions make it numerically rank-deficient.  A symmetric
    eigendecomposition reveals the rank: modes with ``|λ| ≤ rtol·max|λ|``
    are dropped (pseudo-inverse), which deflates the dependent direction
    instead of amplifying it.  Returns ``(solution, deflated)``.
    """
    g = 0.5 * (g + g.T)
    lam, q = np.linalg.eigh(g)
    scale = float(np.max(np.abs(lam), initial=0.0))
    if scale == 0.0:
        return np.zeros_like(s), True
    keep = np.abs(lam) > rtol * scale
    inv = np.where(keep, 1.0 / np.where(keep, lam, 1.0), 0.0)
    sol = q @ (inv[:, None] * (q.T @ s))
    return sol, bool(np.any(~keep))


def pcg_block(t: SymmetricBlockToeplitz, b: np.ndarray, *,
              preconditioner=None,
              tol: float = 1e-12, max_iter: int | None = None,
              raise_on_fail: bool = False) -> BlockPCGResult:
    """Solve ``T X = B`` for a panel ``B ∈ R^{n×k}`` by block CG.

    One iteration applies the fast matvec, the (optional) factored
    preconditioner and the CG recurrences to the whole active panel at
    once — level-3 shapes throughout.  Columns whose residual passes
    ``‖r_j‖ ≤ tol·‖b_j‖`` are deflated out of the active block; the
    ``k × k`` Gram systems are solved rank-revealingly
    (:func:`_solve_gram_rr`) so a breakdown from linearly dependent
    search directions degrades to a smaller effective block instead of
    destroying the iteration.

    Parameters match :func:`pcg`; a 1-D ``b`` is treated as a width-1
    panel (the result's ``x`` is then ``n × 1``).
    """
    n = t.order
    panel, _ = as_panel(b, n)
    k = panel.shape[1]
    if max_iter is None:
        max_iter = 2 * n
    emb = BlockCirculantEmbedding(t)
    res = BlockPCGResult(x=np.zeros((n, k)), iterations=0,
                         converged=False, nrhs=k)
    bnorm = np.linalg.norm(panel, axis=0)
    col_iter = np.full(k, -1, dtype=np.intp)
    col_iter[bnorm == 0.0] = 0
    active = np.nonzero(bnorm > 0.0)[0]
    if active.size == 0:
        res.converged = True
        res.per_column_iterations = col_iter
        return res
    traced = obs.enabled()
    residual_gauge = obs.default_registry().gauge(
        "repro_pcg_residual",
        "‖b − T x‖₂ after the most recent PCG iteration"
    ) if traced else None
    with obs.span("pcg", order=n, nrhs=k, tol=tol,
                  max_iter=max_iter,
                  preconditioned=preconditioner is not None) as sp:
        x = res.x
        r = panel[:, active].copy()
        if preconditioner is not None:
            z = preconditioner.solve(r)
            res.precond_solves += 1
            res.precond_columns += int(active.size)
        else:
            z = r.copy()
        p = z.copy()
        s = r.T @ z                    # RᵀZ, a×a
        res.residual_norms.append(float(np.max(
            np.linalg.norm(r, axis=0))))
        if traced:
            residual_gauge.set(res.residual_norms[0])
        for it in range(1, max_iter + 1):
            ap = emb(p)
            res.matvecs += 1
            res.matvec_columns += int(active.size)
            g = p.T @ ap               # PᵀAP, a×a
            alpha, deflated = _solve_gram_rr(g, s)
            if deflated:
                res.deflations += 1
            x[:, active] += p @ alpha
            r -= ap @ alpha
            rnorm = np.linalg.norm(r, axis=0)
            res.iterations = it
            res.residual_norms.append(float(np.max(rnorm)))
            if traced:
                residual_gauge.set(res.residual_norms[-1])
            done = rnorm <= tol * bnorm[active]
            col_iter[active[done]] = it
            if np.any(done):
                # Deflate converged columns out of the active block.
                live = ~done
                active = active[live]
                r = np.ascontiguousarray(r[:, live])
                p = np.ascontiguousarray(p[:, live])
                s = np.ascontiguousarray(s[np.ix_(live, live)])
            if active.size == 0:
                res.converged = True
                break
            if preconditioner is not None:
                z = preconditioner.solve(r)
                res.precond_solves += 1
                res.precond_columns += int(active.size)
            else:
                z = r.copy()
            s_new = r.T @ z
            beta, deflated = _solve_gram_rr(s, s_new)
            if deflated:
                res.deflations += 1
            p = z + p @ beta
            s = s_new
        sp.set(iterations=res.iterations, converged=res.converged,
               matvecs=res.matvecs, precond_solves=res.precond_solves,
               deflations=res.deflations)
    res.per_column_iterations = col_iter
    if not res.converged and raise_on_fail:
        raise ConvergenceError(
            f"block PCG failed to reach tol={tol} in {res.iterations} "
            f"iterations ({int(np.sum(col_iter < 0))} of {k} columns "
            "unconverged)",
            iterations=res.iterations,
            residual=res.residual_norms[-1])
    return res
