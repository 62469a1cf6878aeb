"""Precision policy for the solver core.

The package supports two plan-level precisions:

* ``"fp64"`` — everything in IEEE double (the historical default);
* ``"fp32"`` — the factorization (generator, elimination, triangular
  factor) runs entirely in single precision.  Modern BLAS runs ``sgemm``
  at roughly twice the ``dgemm`` rate, so the ``O(m_s n²)`` factor costs
  about half as much wall-clock.

An fp32 factorization is recovered to full accuracy by the Section 8
iterative-refinement loop with a double-precision residual: the
refinement analysis (eq. 41) bounds the per-sweep contraction by
``γ ≈ cond(T) · ε_working``, so as long as ``cond(T) · ε₃₂`` is safely
below one, a handful of sweeps restores fp64-level residuals.  The
engine enforces exactly that admission test (:func:`refinement_admissible`,
driven by :mod:`repro.core.condest`) and falls back to a fp64
factorization when the estimate says fp32 refinement cannot converge.
"""

from __future__ import annotations

import numpy as np

import repro.obs as obs
from repro.errors import InvalidOptionError
from repro.obs import health

__all__ = [
    "PRECISIONS",
    "validate_precision",
    "working_dtype",
    "complex_working_dtype",
    "precision_eps",
    "dtype_name",
    "precision_of_dtype",
    "refinement_admissible",
    "flush_tiny",
    "ADMISSION_LIMIT",
]

#: The plan-level precision axis.
PRECISIONS = ("fp64", "fp32")

#: Admission threshold for reduced-precision factorization + refinement:
#: require ``cond₁(T) · ε_working ≤ ADMISSION_LIMIT`` so the
#: refinement contraction factor γ (eq. 41) stays far below one.
ADMISSION_LIMIT = 0.05


def validate_precision(precision: str) -> str:
    """Return ``precision`` or raise for an unknown value."""
    if precision not in PRECISIONS:
        raise InvalidOptionError(
            f"unknown precision {precision!r}; expected one of {PRECISIONS}")
    return precision


def working_dtype(precision: str) -> np.dtype:
    """Storage and arithmetic dtype of the factorization."""
    validate_precision(precision)
    return np.dtype(np.float32 if precision == "fp32" else np.float64)


def complex_working_dtype(precision: str) -> np.dtype:
    """Complex analogue of :func:`working_dtype` (for the GKO kernel)."""
    validate_precision(precision)
    return np.dtype(np.complex128 if precision == "fp64" else np.complex64)


def precision_eps(precision: str) -> float:
    """Unit roundoff of the working dtype for ``precision``."""
    return float(np.finfo(working_dtype(precision)).eps)


def dtype_name(dtype) -> str:
    """Canonical string name of a (possibly complex) working dtype."""
    return np.dtype(dtype).name


def precision_of_dtype(dtype) -> str:
    """Map a real working dtype back to its precision label."""
    dt = np.dtype(dtype)
    if dt in (np.dtype(np.float32), np.dtype(np.complex64)):
        return "fp32"
    return "fp64"


#: Relative flush threshold: ``ε₃₂²`` — seven orders of magnitude below
#: single-precision roundoff of the dominant scale.
_FLUSH_REL = float(np.finfo(np.float32).eps) ** 2


def flush_tiny(a: np.ndarray) -> None:
    """Zero float32 entries below ``ε₃₂² · max|a|``, in place.

    Displacement generators decay geometrically during elimination; in
    single precision the trailing entries drift toward the subnormal
    range, where BLAS kernels run an order of magnitude slower (an
    ``sgemm`` with subnormal operands can cost 30× a normal one).
    Entries this far below the working scale are numerically dead —
    ``ε₃₂²`` under the dominant magnitude cannot influence a factor that
    already carries ``ε₃₂`` rounding — so flushing them buys the fp32
    speed back without touching accuracy.  No-op for non-float32 arrays.
    """
    if a.dtype != np.float32 or a.size == 0:
        return
    scale = float(np.max(np.abs(a)))
    if scale == 0.0 or not np.isfinite(scale):
        return
    cut = np.float32(_FLUSH_REL * scale)
    np.copyto(a, np.float32(0.0), where=np.abs(a) < cut)


def refinement_admissible(cond: float, precision: str, *,
                          limit: float = ADMISSION_LIMIT) -> bool:
    """Can refinement recover a ``precision`` factorization of a matrix
    with condition estimate ``cond``?

    The eq.-41 contraction factor is ``γ ≈ cond · ε_working``; admission
    requires it at most ``limit`` so convergence takes a few sweeps and
    the recovered residual matches a pure fp64 solve.
    """
    if precision == "fp64":
        return True
    admitted = (np.isfinite(cond)
                and cond * precision_eps(precision) <= limit)
    if obs.enabled():
        health.record_admission(precision, float(cond), admitted)
    return admitted
