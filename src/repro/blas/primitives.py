"""Counted BLAS-like primitives.

Every kernel executes through NumPy (so it is as fast as a plain NumPy
call) and, when a :class:`FlopCounter` is active, charges the canonical
flop count of the corresponding BLAS operation:

====================  =======================  =================
kernel                BLAS analogue            flops charged
====================  =======================  =================
``dot(x, y)``         ``ddot``                 ``2n − 1``
``axpy(a, x, y)``     ``daxpy``                ``2n``
``scal(a, x)``        ``dscal``                ``n``
``gemv(A, x)``        ``dgemv``                ``2mn``
``ger(a, x, y, A)``   ``dger``                 ``2mn``
``gemm(A, B)``        ``dgemm``                ``2mnk``
``trsm_lower(L, B)``  ``dtrsm``                ``m²·nrhs``
``syrk(A)``           ``dsyrk``                ``m(m+1)k``
====================  =======================  =================

Counting is scoped: ``with counting() as c: …`` tallies only the work done
inside the block, split by category, with zero overhead on the hot path
when no counter is active.  The Schur implementations run all their inner
linear algebra through these kernels, which is how the benchmark harness
validates the paper's closed-form operation counts (eqs. 25–32) against
*measured* counts.
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np
import scipy.linalg as sla

from repro.obs import spans as _obs

__all__ = [
    "FlopCounter",
    "counting",
    "active_counter",
    "charge",
    "dot",
    "axpy",
    "scal",
    "gemv",
    "ger",
    "gemm",
    "trsm_lower",
    "syrk",
]

# Stack of active counters; nested scopes all get charged.
_STACK: list["FlopCounter"] = []


@dataclass
class FlopCounter:
    """Accumulates floating-point operation counts by category.

    ``by_dtype`` splits the same total by the operand dtype the work was
    executed in (``"float32"`` vs ``"float64"``, complex analogues for
    the GKO kernel), so a mixed-precision run reports honestly how many
    of its operations ran at reduced precision.
    """

    total: int = 0
    by_category: dict[str, int] = field(default_factory=dict)
    by_primitive: dict[str, int] = field(default_factory=dict)
    by_dtype: dict[str, int] = field(default_factory=dict)

    def add(self, flops: int, category: str = "misc",
            primitive: str = "misc", dtype: str = "float64") -> None:
        """Record ``flops`` under ``category``, ``primitive``, ``dtype``."""
        flops = int(flops)
        self.total += flops
        self.by_category[category] = self.by_category.get(category, 0) + flops
        self.by_primitive[primitive] = (
            self.by_primitive.get(primitive, 0) + flops)
        self.by_dtype[dtype] = self.by_dtype.get(dtype, 0) + flops

    def reset(self) -> None:
        """Zero all tallies."""
        self.total = 0
        self.by_category.clear()
        self.by_primitive.clear()
        self.by_dtype.clear()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        cats = ", ".join(f"{k}={v}" for k, v in sorted(
            self.by_category.items()))
        return f"FlopCounter(total={self.total}, {cats})"


@contextmanager
def counting(counter: FlopCounter | None = None):
    """Context manager activating a flop counter for the enclosed block."""
    c = counter if counter is not None else FlopCounter()
    _STACK.append(c)
    try:
        yield c
    finally:
        _STACK.pop()


def active_counter() -> FlopCounter | None:
    """The innermost active counter, or ``None``."""
    return _STACK[-1] if _STACK else None


# Category applied to subsequent charges; the Schur loop switches this
# between "blocking" and "application" to split costs the way Section 6
# does.
_CATEGORY: list[str] = ["misc"]


#: What :func:`category` returns when nothing would record it.
_NO_CATEGORY = nullcontext()


def category(name: str):
    """Attribute all charges inside the block to ``name``.

    When observability is enabled *and* a span is open, the block's wall
    time is also folded into the current span's phase accumulator
    (:func:`repro.obs.record_phase`) — that is how the Schur loop's
    blocking / application / panel split surfaces in ``--profile``
    output without per-call child spans.  With no counter active and
    observability off nothing would see the category, so a shared no-op
    context is returned.  The returned scope may be entered again after
    it exits (the Schur column loop makes one per phase and reuses it),
    but not while it is open.
    """
    if not _STACK and not _obs.enabled():
        return _NO_CATEGORY
    return _Category(name)


class _Category:
    """The scope :func:`category` returns while something records it."""

    __slots__ = ("name", "_t0")

    def __init__(self, name: str):
        self.name = name
        self._t0: float | None = None

    def __enter__(self):
        _CATEGORY.append(self.name)
        self._t0 = (perf_counter() if _obs.enabled()
                    and _obs.current_span() is not None else None)

    def __exit__(self, *exc) -> None:
        _CATEGORY.pop()
        if self._t0 is not None:
            _obs.record_phase(self.name, perf_counter() - self._t0)


def charge(flops: int, primitive: str = "misc",
           dtype: str = "float64") -> None:
    """Charge ``flops`` to every active counter (no-op when none).

    ``dtype`` names the precision the work executes in; call sites in
    reduced-precision kernels pass their operand's ``dtype.name`` so the
    per-dtype tallies stay honest.
    """
    if _STACK:
        cat = _CATEGORY[-1]
        for c in _STACK:
            c.add(flops, cat, primitive, dtype)


# ----------------------------------------------------------------------
# Level 1
# ----------------------------------------------------------------------

def dot(x: np.ndarray, y: np.ndarray) -> float:
    """``xᵀ y`` — charges ``2n − 1`` flops."""
    if _STACK:
        charge(2 * x.shape[0] - 1, "dot", x.dtype.name)
    return float(np.dot(x, y))


def axpy(alpha: float, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``y ← α x + y`` in place — charges ``2n`` flops."""
    if _STACK:
        charge(2 * x.shape[0], "axpy", y.dtype.name)
    y += alpha * x
    return y


def scal(alpha: float, x: np.ndarray) -> np.ndarray:
    """``x ← α x`` in place — charges ``n`` flops."""
    if _STACK:
        charge(x.size, "scal", x.dtype.name)
    x *= alpha
    return x


# ----------------------------------------------------------------------
# Level 2
# ----------------------------------------------------------------------

def gemv(a: np.ndarray, x: np.ndarray, *, trans: bool = False) -> np.ndarray:
    """``A x`` (or ``Aᵀ x``) — charges ``2mn`` flops."""
    if _STACK:
        charge(2 * a.shape[0] * a.shape[1], "gemv", a.dtype.name)
    return a.T @ x if trans else a @ x


#: dtype → SciPy ``?ger``; with ``overwrite_a=1`` it updates a
#: Fortran-contiguous operand in place (any other layout, a copy).
GER_KERNELS = {np.dtype(np.float64): sla.blas.dger,
               np.dtype(np.float32): sla.blas.sger}


def ger(alpha: float, x: np.ndarray, y: np.ndarray,
        a: np.ndarray) -> np.ndarray:
    """Rank-1 update ``A ← A + α x yᵀ`` in place — charges ``2mn`` flops.

    Contiguous real panels go straight to BLAS ``?ger`` (a C-contiguous
    ``A`` is updated through its transpose, which is exactly the
    Fortran-order view the kernel wants) — one fused pass, no ``m × n``
    temporary.  Strided views fall back to an outer-product update.
    """
    if _STACK:
        charge(2 * a.shape[0] * a.shape[1], "ger", a.dtype.name)
    f = GER_KERNELS.get(a.dtype)
    if f is not None:
        if a.flags.c_contiguous:
            f(alpha, y, x, a=a.T, overwrite_a=1)
            return a
        if a.flags.f_contiguous:
            f(alpha, x, y, a=a, overwrite_a=1)
            return a
    np.add(a, np.outer(np.asarray(x) * alpha, y), out=a)
    return a


# ----------------------------------------------------------------------
# Level 3
# ----------------------------------------------------------------------

def gemm(a: np.ndarray, b: np.ndarray, *, out: np.ndarray | None = None,
         accumulate: bool = False) -> np.ndarray:
    """``C (+)= A B`` — charges ``2mnk`` flops."""
    if _STACK:
        m, k = a.shape
        n = b.shape[1] if b.ndim == 2 else 1
        charge(2 * m * n * k, "gemm", a.dtype.name)
    if out is None:
        return a @ b
    if accumulate:
        out += a @ b
    else:
        np.matmul(a, b, out=out)
    return out


def trsm_lower(l: np.ndarray, b: np.ndarray, *,
               trans: bool = False) -> np.ndarray:
    """Solve ``L X = B`` (or ``Lᵀ X = B``) — charges ``m²·nrhs`` flops."""
    if _STACK:
        m = l.shape[0]
        nrhs = b.shape[1] if b.ndim == 2 else 1
        charge(m * m * nrhs, "trsm", l.dtype.name)
    return sla.solve_triangular(l, b, lower=True,
                                trans=1 if trans else 0, check_finite=False)


def syrk(a: np.ndarray) -> np.ndarray:
    """``A Aᵀ`` — charges ``m(m+1)k`` flops (symmetric rank-k update)."""
    if _STACK:
        m, k = a.shape
        charge(m * (m + 1) * k, "syrk", a.dtype.name)
    return a @ a.T
