"""Iterative refinement (Section 8.1), one blocked sweep for every shape.

Given an (approximate) factorization of ``T + δT`` and the *original*
``T``, the loop

    solve ``L D Lᵀ Δx_i = r_i``;  ``x_{i+1} = x_i + Δx_i``;
    ``r_{i+1} = b − T x_{i+1}``

converges linearly with factor ``γ = ‖ΔT T⁻¹‖`` (eq. 41) to a residual at
the level of a backward-stable solver (eq. 42).  With the perturbation
size ``δ = ∛ε`` the paper predicts (and Section 8.2's example shows)
convergence in 2–3 steps.

Residuals are computed with the FFT fast matvec
(:class:`~repro.toeplitz.matvec.BlockCirculantEmbedding`) — ``O(n log n)``
per iteration, which is why refinement is much cheaper per step than the
preconditioned conjugate-gradient alternative it is compared against.

The loop runs on an ``n × k`` panel; a vector ``b`` is a one-column
panel.  Every sweep does one factored panel solve (a level-3 pair of
``dtrsm`` calls) and one batched FFT matvec for all still-active
columns, with a per-column convergence mask — converged columns stop
accumulating work while stragglers continue.  This is the solve-phase
instance of the paper's Section 6.5 lesson (trade loop iterations for
level-3 kernel shape): :attr:`RefinementResult.solve_calls` counts
factored solves, which drop from ``Σ_j (1 + it_j)`` (per-column
driving) to ``1 + max_j it_j``.

Schur-type factors are only weakly stable (Bojanczyk, Brent and de
Hoog), so the loop reports convergence only when it reached it: a
correction that stops halving counts as the rounding floor only when it
is itself rounding-sized.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

import repro.obs as obs
from repro.obs import health
from repro.toeplitz.block_toeplitz import SymmetricBlockToeplitz
from repro.toeplitz.matvec import BlockCirculantEmbedding
from repro.utils.lintools import as_panel, from_panel

__all__ = ["RefinementResult", "refine"]


@dataclass
class RefinementResult:
    """Outcome of :func:`refine`.

    Attributes
    ----------
    x : ndarray
        Final solution estimate (same shape as the input ``b``).
    iterations : int
        Number of correction sweeps actually computed (for a panel: the
        worst column; see ``per_column_iterations``).
    converged : bool
        True when the stopping rule ``‖Δx‖ < tol·‖x‖`` fired, or the
        correction stopped halving at rounding size
        (``‖Δx‖ ≤ √tol·‖x‖``) — for a panel, in every column.  A
        correction of real size that stops halving reports ``False``,
        whether the residual grew or held.
    residual_norms : list of float
        ``‖b − T x_i‖₂`` after each iterate (index 0 = initial solve).
        For a panel each entry is the worst per-column 2-norm.
    correction_norms : list of float
        ``‖Δx_i‖₂`` for each refinement sweep (panel: worst active
        column).
    history : list of ndarray
        The iterates ``x_1, x_2, …`` (kept only when ``keep_history``).
    nrhs : int
        Number of right-hand-side columns (1 for a vector ``b``).
    solve_calls : int
        Factored solves issued, counting a panel solve as one call
        (includes the initial solve) — the level-3 efficiency metric.
    solve_columns : int
        Column-solve equivalents issued (a panel solve of ``a`` active
        columns counts ``a``) — the flop-proportional metric.
    per_column_iterations : ndarray or None
        Correction sweeps computed for each column (panel input only).
    factor_dtype : str
        Storage dtype of the factorization driving the solves
        (``"float32"`` when a reduced-precision factor was refined).
    tol : float
        The relative correction tolerance the loop actually used.
    """

    x: np.ndarray
    iterations: int
    converged: bool
    residual_norms: list[float] = field(default_factory=list)
    correction_norms: list[float] = field(default_factory=list)
    history: list[np.ndarray] = field(default_factory=list)
    nrhs: int = 1
    solve_calls: int = 0
    solve_columns: int = 0
    per_column_iterations: np.ndarray | None = None
    factor_dtype: str = "float64"
    tol: float = 0.0

    @property
    def converged_precision(self) -> str | None:
        """Precision level the final iterate actually reached.

        ``"fp64"`` when the last relative correction sits at double
        rounding level, ``"fp32"`` at single level, ``None`` above that
        (refinement failed to recover even single accuracy).  This is
        how a caller distinguishes "fp32 factor, recovered to fp64" from
        "fp32 factor, stuck at fp32".
        """
        if not self.correction_norms:
            return "fp64" if self.converged else None
        xn = float(np.linalg.norm(self.x))
        rel = self.correction_norms[-1] / (xn if xn > 0.0 else 1.0)
        if rel <= 64.0 * float(np.finfo(np.float64).eps):
            return "fp64"
        if rel <= 64.0 * float(np.finfo(np.float32).eps):
            return "fp32"
        return None


def refine(factorization, t: SymmetricBlockToeplitz, b: np.ndarray, *,
           tol: float | None = None, max_iter: int = 25,
           keep_history: bool = False) -> RefinementResult:
    """Solve ``T x = b`` by factored solve + iterative refinement.

    Parameters
    ----------
    factorization : object with ``solve``
        Typically an :class:`~repro.core.schur_indefinite.IndefiniteFactorization`
        of ``T + δT`` (or an SPD factorization).
    t : SymmetricBlockToeplitz
        The original, unperturbed matrix (drives the residuals).
    b : array
        Right-hand side: a vector, or an ``n × k`` panel.  Both run the
        blocked sweep (one factored panel solve + one batched FFT
        matvec per iteration, per-column convergence mask); a vector is
        a one-column panel, and the result keeps its 1-D shape.
    tol : float
        Relative correction tolerance; defaults to ``4·ε`` of the
        *target* dtype — the wider of ``b``'s floating dtype and the
        factorization's storage dtype.  A float64 ``b`` against a
        float32 factor therefore still refines to double accuracy (the
        recovery guarantee); a float32 ``b`` against a float32 factor
        stops at single rounding level instead of looping forever
        toward an unreachable ``4·ε₆₄``.
    max_iter : int
        Refinement step cap; the loop also stops when corrections stop
        halving (converged only at the rounding floor, see
        :attr:`RefinementResult.converged`).

    Notes
    -----
    The loop itself always runs in float64 (fp64 residuals via the FFT
    matvec are what make reduced-precision recovery work); only the
    factored solves run at the factorization's dtype.
    """
    b = np.asarray(b)
    factor_dtype = np.dtype(getattr(factorization, "dtype", np.float64))
    if tol is None:
        b_target = b.dtype if b.dtype.kind == "f" else np.float64
        target = np.result_type(b_target, factor_dtype)
        tol = 4.0 * float(np.finfo(target).eps)
    panel, single = as_panel(b, t.order)
    res = _refine_block(factorization, BlockCirculantEmbedding(t), panel,
                        tol=tol, max_iter=max_iter,
                        keep_history=keep_history,
                        factor_dtype=factor_dtype.name)
    if single:
        res.x = from_panel(res.x, single)
        res.history = [from_panel(h, single) for h in res.history]
        res.per_column_iterations = None
    return res


def _at_floor(dx_norm, x_norm, tol):
    """Whether a correction that failed to halve hit the rounding floor.

    Only a rounding-sized correction (``‖Δx‖ ≤ √tol·‖x‖``) is the floor.
    A correction of real size that stops halving means the iteration
    does not contract (``γ = ‖ΔT T⁻¹‖`` near or above 1), whether the
    residual grew or merely held, so the column has not converged.
    Works elementwise on per-column arrays.
    """
    return dx_norm <= np.sqrt(tol) * x_norm


def _refine_block(factorization, emb: BlockCirculantEmbedding,
                  b: np.ndarray, *, tol: float, max_iter: int,
                  keep_history: bool,
                  factor_dtype: str = "float64") -> RefinementResult:
    """The refinement sweep over a C-contiguous ``n × k`` panel.

    A column whose correction passes the tolerance test converges
    *without* that correction applied; a column whose correction stops
    shrinking (after ≥ 2 corrections) stops *with* it applied,
    converged when :func:`_at_floor` says it reached the rounding
    floor.  Only still-active columns enter the factored solve and the
    residual matvec of later sweeps.  ``history`` gains an entry at
    each sweep that changed ``x``.
    """
    k = b.shape[1]
    traced = obs.enabled()
    residual_gauge = obs.default_registry().gauge(
        "repro_refinement_residual",
        "‖b − T x‖₂ after the most recent refinement iterate"
    ) if traced else None
    with obs.span("refine", max_iter=max_iter, tol=tol, nrhs=k) as sp:
        with obs.span("refine.initial_solve", nrhs=k):
            x = np.asarray(factorization.solve(b), dtype=np.float64)
        solve_calls, solve_columns = 1, k
        r = b - emb(x)
        col_res = np.linalg.norm(r, axis=0)
        res_norms = [float(np.max(col_res, initial=0.0))]
        if traced:
            residual_gauge.set(res_norms[0], iteration="0")
        corr_norms: list[float] = []
        history: list[np.ndarray] = [x.copy()] if keep_history else []
        converged_mask = np.zeros(k, dtype=bool)
        computed = np.zeros(k, dtype=np.intp)   # corrections per column
        prev_corr = np.full(k, np.inf)
        active = np.arange(k)
        for it in range(max_iter):
            if active.size == 0:
                break
            with obs.span("refine.iteration", i=it + 1,
                          active=int(active.size)):
                dx = factorization.solve(r[:, active])
                solve_calls += 1
                solve_columns += int(active.size)
                computed[active] += 1
                dx_norm = np.linalg.norm(dx, axis=0)
                x_norm = np.linalg.norm(x[:, active], axis=0)
                corr_norms.append(float(np.max(dx_norm)))
                # Tolerance: converged, correction *not* applied.
                small = dx_norm < tol * np.maximum(x_norm, 1e-300)
                converged_mask[active[small]] = True
                apply_cols = active[~small]
                if apply_cols.size:
                    x[:, apply_cols] += dx[:, ~small]
                    r[:, apply_cols] = (b[:, apply_cols]
                                        - emb(x[:, apply_cols]))
                    col_res[apply_cols] = np.linalg.norm(
                        r[:, apply_cols], axis=0)
                    res_norms.append(float(np.max(col_res)))
                    if traced:
                        residual_gauge.set(res_norms[-1])
                        residual_gauge.set(res_norms[-1],
                                           iteration=str(it + 1))
                    if keep_history:
                        history.append(x.copy())
                # Stagnation: correction no longer shrinking; the
                # column stops *with* the correction applied.
                applied_norm = dx_norm[~small]
                stag = ((computed[apply_cols] >= 2)
                        & (applied_norm > 0.5 * prev_corr[apply_cols]))
                prev_corr[apply_cols] = applied_norm
                converged_mask[apply_cols[stag]] = _at_floor(
                    applied_norm, x_norm[~small], tol)[stag]
                active = apply_cols[~stag]
        converged = bool(np.all(converged_mask))
        sp.set(iterations=len(corr_norms), converged=converged,
               final_residual=res_norms[-1], solve_calls=solve_calls,
               solve_columns=solve_columns)
        if traced:
            health.record_refinement(res_norms, converged)
    return RefinementResult(
        x=x,
        iterations=len(corr_norms),
        converged=converged,
        residual_norms=res_norms,
        correction_norms=corr_norms,
        history=history,
        nrhs=k,
        solve_calls=solve_calls,
        solve_columns=solve_columns,
        per_column_iterations=computed,
        factor_dtype=factor_dtype,
        tol=tol,
    )
