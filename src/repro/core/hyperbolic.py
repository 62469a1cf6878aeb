"""Scalar hyperbolic Householder reflectors (Section 3).

For a signature ``W`` and a vector ``x`` with ``xᵀWx ≠ 0``, the reflector

    ``U_x = W − 2 x xᵀ / (xᵀ W x)``                                (eq. 14)

is W-unitary (``U_xᵀ W U_x = W``).  Given ``u`` with ``W_jj · uᵀWu > 0``,
choosing ``σ² = W_jj · uᵀWu`` and ``x = W u + σ e_j`` yields
``U_x u = −σ e_j`` (eqs. 15–16 generalized to indefinite targets).

The sign of σ is chosen so that ``σ u_j`` has the same sign as ``uᵀWu``,
which keeps ``xᵀWx = 2(uᵀWu + σ u_j)`` away from cancellation for *any*
signature; in the positive-definite case this reduces exactly to the
paper's eq. (16).
"""

from __future__ import annotations

import math

import numpy as np

import repro.obs as obs
from repro.blas import primitives as blas
from repro.core.signature import hyperbolic_norm_squared, signature_vector
from repro.errors import BreakdownError, ShapeError
from repro.obs import health

__all__ = ["HyperbolicHouseholder", "pivot_scalars", "reflect_rows",
           "reflector_annihilating"]


class HyperbolicHouseholder:
    """A single hyperbolic Householder reflector ``U = W + β x xᵀ``.

    Parameters
    ----------
    x : (n,) array
        Reflector vector; must have nonzero hyperbolic norm.
    w : (n,) ±1 array
        Signature.
    support : array of int, optional
        Indices where ``x`` is nonzero.  When given, applications exploit
        the sparsity (the Schur pivot pattern of Figure 1: one diagonal
        entry plus the lower half).

    Notes
    -----
    ``β = −2 / (xᵀWx)``; application to a matrix ``A`` is
    ``U A = W A + β x (xᵀ A)`` — a sign flip, one gemv and one rank-1
    update.
    """

    def __init__(self, x: np.ndarray, w: np.ndarray,
                 support: np.ndarray | None = None,
                 xwx: float | None = None):
        x = np.asarray(x)
        if x.dtype not in (np.float32, np.float64):
            x = x.astype(np.float64)
        w = signature_vector(w)
        if x.ndim != 1 or x.shape[0] != w.shape[0]:
            raise ShapeError(
                f"x has shape {x.shape}, signature has length {w.shape[0]}")
        # ``xwx`` lets a caller that already knows the hyperbolic norm
        # (e.g. the elimination loop, via the eq.-18 identity) skip a
        # full-length recomputation on this hot path.
        if xwx is None:
            xwx = hyperbolic_norm_squared(x, w)
        if xwx == 0.0:
            raise BreakdownError("reflector vector has zero hyperbolic norm")
        self.x = x
        self.w = w
        self.xwx = xwx
        self.beta = -2.0 / xwx
        self.support = (np.asarray(support, dtype=np.intp)
                        if support is not None else None)

    @property
    def n(self) -> int:
        return self.x.shape[0]

    def matrix(self) -> np.ndarray:
        """Dense ``U = W − 2xxᵀ/(xᵀWx)`` (for tests and small problems)."""
        u = np.diag(self.w.astype(np.float64))
        u += self.beta * np.outer(self.x, self.x)
        return u

    def apply_left(self, a: np.ndarray, out: np.ndarray | None = None
                   ) -> np.ndarray:
        """Compute ``U a`` for a vector or matrix ``a``.

        When ``out`` is ``a`` itself the update is done in place.
        Runs in the operand's floating dtype (float32 stays float32).
        """
        a = np.asarray(a)
        if a.dtype not in (np.float32, np.float64):
            a = a.astype(np.float64)
        if a.shape[0] != self.n:
            raise ShapeError(
                f"operand has {a.shape[0]} rows, expected {self.n}")
        if out is None:
            out = np.array(a)
        elif out is not a:
            np.copyto(out, a)
        if a.ndim == 2:
            return reflect_rows(self.x, self.beta, self.w, out,
                                support=self.support)
        wf = self.w.astype(a.dtype)
        if self.support is None:
            coef = self.beta * blas.dot(self.x, a)
            out[:] = wf * a
            blas.axpy(coef, self.x, out)
            return out
        # Sparse path: only rows in `support` carry reflector mass.
        idx = self.support
        xs = self.x[idx]
        coef = self.beta * blas.dot(xs, a[idx])
        out[:] = wf * a
        out[idx] += coef * xs
        return out

    def is_w_unitary(self, rtol: float = 1e-10) -> bool:
        """Check ``UᵀWU = W`` numerically (diagnostic)."""
        u = self.matrix()
        wmat = np.diag(self.w.astype(np.float64))
        return np.allclose(u.T @ wmat @ u, wmat,
                           rtol=rtol, atol=rtol * max(1.0, self.xwx))


def reflect_rows(x: np.ndarray, beta: float, w: np.ndarray,
                 a: np.ndarray, support: np.ndarray | None = None
                 ) -> np.ndarray:
    """Apply ``U = W + β x xᵀ`` to the 2-D operand ``a`` in place.

    With ``support`` (the indices where ``x`` is nonzero) only those
    rows take part in the gemv and rank-1 update; every row still gets
    its sign from ``W``.  Returns ``a``.
    """
    wf = w.astype(a.dtype)
    if support is None:
        xa = blas.gemv(a, x, trans=True)
        a *= wf[:, None]
        blas.ger(beta, x, xa, a)
        return a
    xs = x[support]
    xa = blas.gemv(a[support], xs, trans=True)
    a *= wf[:, None]
    sub = a[support]
    blas.ger(beta, xs, xa, sub)
    a[support] = sub
    return a


def reflector_annihilating(u: np.ndarray, w: np.ndarray, j: int, *,
                           support: np.ndarray | None = None,
                           breakdown_tol: float = 0.0
                           ) -> tuple[HyperbolicHouseholder, float]:
    """Reflector mapping ``u`` to ``−σ e_j``; returns ``(U, σ)``.

    Requires ``W_jj · uᵀWu > 0`` (same hyperbolic norm sign as the target
    axis).  ``breakdown_tol`` is an absolute threshold on
    ``|uᵀWu| / ‖u‖²`` below which the pivot is declared numerically
    singular (:class:`~repro.errors.BreakdownError`).  The reflector is
    built in ``u``'s floating dtype — a float32 pivot column yields a
    float32 reflector (the hyperbolic norm itself is accumulated in
    double either way).
    """
    u = np.asarray(u)
    if u.dtype not in (np.float32, np.float64):
        u = u.astype(np.float64)
    w = signature_vector(w)
    n = u.shape[0]
    if not (0 <= j < n):
        raise ShapeError(f"target index {j} out of range for n={n}")
    if support is not None:
        support = np.asarray(support, dtype=np.intp)
        if j not in support:
            support = np.sort(np.append(support, j))
        # All of u's mass lives on the support (the caller's contract),
        # so the norms need only the m+1 supported entries.
        us = u[support]
        h = hyperbolic_norm_squared(us, w[support])
        unorm2 = float(np.dot(us, us))
    else:
        h = hyperbolic_norm_squared(u, w)
        unorm2 = float(np.dot(u, u))
    sigma, xwx = pivot_scalars(h, unorm2, float(w[j]), float(u[j]),
                               breakdown_tol)
    x = w.astype(u.dtype) * u
    x[j] += x.dtype.type(sigma)
    blas.charge(3 * n + 8, "reflector-setup")  # paper's per-step x cost
    return HyperbolicHouseholder(x, w, support=support, xwx=xwx), sigma


def pivot_scalars(h: float, unorm2: float, wjj: float, uj: float,
                  breakdown_tol: float) -> tuple[float, float]:
    """``(σ, xᵀWx)`` of the reflector taking ``u`` to the ``j`` axis.

    ``h = uᵀWu`` and ``unorm2 = ‖u‖²``, ``wjj = W_jj`` and ``uj = u_j``.
    Raises :class:`~repro.errors.BreakdownError` for a zero ``u``, a
    hyperbolic norm at or below ``breakdown_tol · ‖u‖²``, or a target
    axis of the wrong sign; records the rotation margin when
    observability is on.
    """
    if unorm2 == 0.0:
        raise BreakdownError("cannot annihilate the zero vector")
    if abs(h) <= breakdown_tol * unorm2:
        raise BreakdownError(
            f"pivot column has (numerically) zero hyperbolic norm "
            f"(uᵀWu = {h:.3e}, ‖u‖² = {unorm2:.3e})")
    if obs.enabled():
        health.record_rotation_margin(abs(h) / unorm2, breakdown_tol)
    if wjj * h <= 0.0:
        raise BreakdownError(
            f"target axis sign W_jj={wjj:+.0f} incompatible with "
            f"uᵀWu={h:.3e}; interchange rows first")
    sigma = math.sqrt(wjj * h)
    # Stable sign: make σ·u_j agree in sign with uᵀWu so that
    # xᵀWx = 2(uᵀWu + σ u_j) has no cancellation, which makes the
    # identity safe to use for the reflector's norm.
    if uj != 0.0:
        sigma = math.copysign(sigma, h * uj)
    return sigma, 2.0 * (h + sigma * uj)
