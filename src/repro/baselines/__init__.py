"""Baselines the paper compares against (or that validate our results).

* :mod:`repro.baselines.levinson` — a from-scratch block Levinson–Durbin
  solver (the classical ``O(p² m³)`` alternative to the Schur approach;
  the Concus–Saylor perturbation idea was developed for this algorithm);
* :mod:`repro.baselines.dense_chol` — dense LAPACK Cholesky / LDLᵀ via
  SciPy, the ``O(n³)`` reference for accuracy and crossover timing;
* :mod:`repro.baselines.pcg` — preconditioned conjugate gradients with
  the perturbed ``Rᵀ D R`` factorization as preconditioner, the
  Section 8 comparator for iterative refinement.

Each baseline also registers itself as a solver-engine algorithm
(:func:`repro.engine.register_algorithm`), so
``repro.engine.algorithms()`` exposes Schur solvers and baselines
through one uniform plan/execute interface — the comparison benchmarks
iterate that registry instead of hard-wiring call sites.
"""

from repro.baselines.levinson import block_levinson_solve, LevinsonResult
from repro.baselines.dense_chol import (
    dense_cholesky_solve,
    dense_ldl_solve,
)
from repro.baselines.pcg import pcg, pcg_block, BlockPCGResult, PCGResult
from repro.baselines.circulant import (
    CirculantPreconditioner,
    strang_preconditioner,
    tchan_preconditioner,
    circulant_pcg,
)
from repro.utils.lintools import as_panel, from_panel

__all__ = [
    "block_levinson_solve",
    "LevinsonResult",
    "dense_cholesky_solve",
    "dense_ldl_solve",
    "pcg",
    "pcg_block",
    "PCGResult",
    "BlockPCGResult",
    "CirculantPreconditioner",
    "strang_preconditioner",
    "tchan_preconditioner",
    "circulant_pcg",
]


# ----------------------------------------------------------------------
# Engine registration
# ----------------------------------------------------------------------
def _levinson_solve(op, b, pl, fact, **_kwargs):
    res = block_levinson_solve(op, b)
    return res.x, res


class _DenseCholeskyFactor:
    """Cached dense ``cho_factor`` wrapper with the engine's ``solve``."""

    def __init__(self, op):
        import scipy.linalg as sla
        from repro.errors import NotPositiveDefiniteError
        try:
            self._factor = sla.cho_factor(op.assemble(),
                                          check_finite=False)
        except sla.LinAlgError as exc:
            raise NotPositiveDefiniteError(str(exc)) from exc

    def solve(self, b):
        import scipy.linalg as sla
        return sla.cho_solve(self._factor, b, check_finite=False)


def _dense_chol_factor(op, pl):
    return _DenseCholeskyFactor(op)


def _pcg_factor(op, pl):
    # The Section 8 preconditioner: perturbed RᵀDR of the same matrix.
    from repro.core.schur_indefinite import schur_indefinite_factor
    return schur_indefinite_factor(op, perturb=True, delta=pl.delta)


def _pcg_solve(op, b, pl, fact, *, tol: float = 1e-12,
               max_iter: int | None = None, **_kwargs):
    # One block-CG run over all columns (batched matvecs, batched
    # preconditioner solves); a vector is a one-column panel.
    panel, single = as_panel(b)
    res = pcg_block(op, panel, preconditioner=fact, tol=tol,
                    max_iter=max_iter)
    return from_panel(res.x, single), res


def _register_engine_algorithms() -> None:
    from repro.engine.engine import (
        _REGISTRY,
        _factored_solve,
        register_algorithm,
    )
    if "levinson" in _REGISTRY:  # already registered (re-import)
        return
    register_algorithm(
        "levinson", solve=_levinson_solve,
        description="block Levinson–Durbin recursion, O(p² m³)")
    register_algorithm(
        "pcg", factor=_pcg_factor, solve=_pcg_solve,
        description="CG preconditioned by the perturbed RᵀDR "
                    "factorization (Section 8 comparator)")
    register_algorithm(
        "dense-chol", factor=_dense_chol_factor, solve=_factored_solve,
        description="dense LAPACK Cholesky, the O(n³) reference")


_register_engine_algorithms()
