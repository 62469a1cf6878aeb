"""Block representations of products of hyperbolic Householder reflectors.

Section 4 of the paper adapts the WY-style representations of Bischof &
Van Loan and Schreiber & Van Loan to the hyperbolic case.  A product of
``k`` reflectors ``U^{(k)} = U_k ⋯ U_1`` is carried in one of three forms:

* **first VY form** (Lemma 4.0.1):   ``U^{(k)} = Wᵏ + V_k Y_kᵀ`` with
  ``V_{k+1} = [W V_k, x]``, ``Y_{k+1} = [Y_k, zᵀ]``,
  ``z = β xᵀ U^{(k)}`` — two matrix–vector products per step;
* **second VY form** (Lemma 4.0.2):  same shape but
  ``V_{k+1} = [U_{k+1} V_k, x]`` and ``z = β xᵀ Wᵏ`` — one matrix–vector
  product and one rank-1 update per step (fewest flops of the VY pair);
* **YTYᵀ form** (Lemma 4.0.3):       ``U^{(k)} = Wᵏ + Y_k T_k Y_kᵀ Wᵏ⁻¹``
  — cheapest to *build* and half the storage/communication volume, at a
  slightly higher application cost.

Two reference schemes complete the design space of Section 6.2:

* **unblocked** — keep the reflectors separate and apply them one at a
  time (pure level-2 path, zero blocking cost);
* **dense** — multiply the reflectors out into an explicit ``2m × 2m``
  ``U`` (the "naive blocking scheme", most expensive to build).

All five expose the same interface, so the factorization loop is generic
in the representation — exactly the implementation trade-off the paper
studies.
"""

from __future__ import annotations

import numpy as np

from repro.blas import primitives as blas
from repro.core.hyperbolic import HyperbolicHouseholder, reflect_rows
from repro.core.signature import signature_vector
from repro.errors import ShapeError

__all__ = [
    "BlockReflector",
    "VYFirstAccumulator",
    "VYSecondAccumulator",
    "YTYAccumulator",
    "UnblockedAccumulator",
    "DenseAccumulator",
    "make_accumulator",
    "REPRESENTATIONS",
]


def _apply_wpow(w: np.ndarray, k: int, a: np.ndarray) -> np.ndarray:
    """Return ``Wᵏ a`` (``W`` diagonal ±1 ⇒ identity for even ``k``)."""
    if k % 2 == 0:
        return a
    wf = w.astype(a.dtype if a.dtype.kind == "f" else np.float64)
    return wf * a if a.ndim == 1 else wf[:, None] * a


class BlockReflector:
    """A finished block hyperbolic Householder transformation.

    Created by one of the accumulators; applies ``U`` to matrices either
    stacked (:meth:`apply_left`) or as an (upper, lower) pair of row-block
    views (:meth:`apply_pair`), which is what the in-place Schur variant
    of Section 6.4 needs.
    """

    def __init__(self, kind: str, w: np.ndarray, k: int, *,
                 v: np.ndarray | None = None,
                 y: np.ndarray | None = None,
                 t: np.ndarray | None = None,
                 u_dense: np.ndarray | None = None,
                 reflectors: list[tuple] | None = None):
        self.kind = kind
        self.w = w
        self.k = k
        self.v = v
        self.y = y
        self.t = t
        self.u_dense = u_dense
        self.reflectors = reflectors

    @property
    def n(self) -> int:
        return self.w.shape[0]

    # ------------------------------------------------------------------
    def matrix(self) -> np.ndarray:
        """Dense ``U^{(k)}`` (reference implementation for testing)."""
        n, k, w = self.n, self.k, self.w
        wk = np.diag(w.astype(np.float64)) if k % 2 else np.eye(n)
        if self.kind == "dense":
            return np.array(self.u_dense)
        if self.kind == "unblocked":
            u = np.eye(n)
            for x, beta, _support in self.reflectors:
                u = (np.diag(w.astype(np.float64))
                     + beta * np.outer(x, x)) @ u
            return u
        if self.kind in ("vy1", "vy2"):
            return wk + self.v @ self.y.T
        if self.kind == "yty":
            right = _apply_wpow(w, k - 1, np.array(self.y)).T
            return wk + self.y @ (self.t @ right)
        raise ShapeError(f"unknown representation {self.kind!r}")

    # ------------------------------------------------------------------
    def apply_left(self, a: np.ndarray, out: np.ndarray | None = None
                   ) -> np.ndarray:
        """Compute ``U a``; ``out`` may alias ``a`` for in-place update.
        Runs in the operand's floating dtype (float32 stays float32)."""
        a = np.asarray(a)
        if a.dtype not in (np.float32, np.float64):
            a = a.astype(np.float64)
        if a.shape[0] != self.n:
            raise ShapeError(
                f"operand has {a.shape[0]} rows, expected {self.n}")
        vec = a.ndim == 1
        a2 = a[:, None] if vec else a
        if out is None:
            res = self._apply2(a2)
        else:
            out2 = out[:, None] if vec else out
            res = self._apply2(a2, out=out2)
        if out is not None:
            if vec:
                out[:] = res[:, 0]
            return out
        return res[:, 0] if vec else res

    def _apply2(self, a: np.ndarray, out: np.ndarray | None = None
                ) -> np.ndarray:
        kind, w, k = self.kind, self.w, self.k
        if kind == "dense":
            res = blas.gemm(self.u_dense, a)
        elif kind == "unblocked":
            res = np.array(a)
            for x, beta, support in self.reflectors:
                reflect_rows(x, beta, w, res, support=support)
        elif kind in ("vy1", "vy2"):
            ya = blas.gemm(self.y.T, a)
            res = np.array(_apply_wpow(w, k, a))
            res += blas.gemm(self.v, ya)
        else:  # yty
            wa = _apply_wpow(w, k - 1, a)
            ya = blas.gemm(self.y.T, wa)
            tya = blas.gemm(self.t, ya)
            res = np.array(_apply_wpow(w, k, a))
            res += blas.gemm(self.y, tya)
        if out is not None:
            np.copyto(out, res)
            return out
        return res

    # ------------------------------------------------------------------
    def apply_pair(self, upper: np.ndarray, lower: np.ndarray) -> None:
        """Apply ``U`` in place to the stacked operand ``[upper; lower]``.

        ``upper`` and ``lower`` are ``m × q`` views into different parts of
        the generator; this routine never materializes the stacked matrix,
        which is the "in-place implementation" of Section 6.4 that avoids
        the Phase-3 shift copy.
        """
        m = upper.shape[0]
        if m + lower.shape[0] != self.n:
            raise ShapeError(
                f"pair rows {m}+{lower.shape[0]} != reflector size {self.n}")
        kind, w, k = self.kind, self.w, self.k
        if kind in ("dense", "unblocked"):
            stacked = np.vstack([upper, lower])
            res = self._apply2(stacked)
            upper[:] = res[:m]
            lower[:] = res[m:]
            return
        wu, wl = w[:m], w[m:]
        dt = upper.dtype
        if kind in ("vy1", "vy2"):
            # Yᵀ[A_up; A_low] = Y_upᵀ A_up + Y_lowᵀ A_low
            ya = blas.gemm(self.y[:m].T, upper)
            ya += blas.gemm(self.y[m:].T, lower)
            if k % 2:
                upper *= wu.astype(dt)[:, None]
                lower *= wl.astype(dt)[:, None]
            upper += blas.gemm(self.v[:m], ya)
            lower += blas.gemm(self.v[m:], ya)
            return
        # yty
        if (k - 1) % 2:
            ya = blas.gemm(self.y[:m].T,
                           wu.astype(dt)[:, None] * upper)
            ya += blas.gemm(self.y[m:].T,
                            wl.astype(dt)[:, None] * lower)
        else:
            ya = blas.gemm(self.y[:m].T, upper)
            ya += blas.gemm(self.y[m:].T, lower)
        tya = blas.gemm(self.t, ya)
        if k % 2:
            upper *= wu.astype(dt)[:, None]
            lower *= wl.astype(dt)[:, None]
        upper += blas.gemm(self.y[:m], tya)
        lower += blas.gemm(self.y[m:], tya)


# ----------------------------------------------------------------------
# Accumulators
# ----------------------------------------------------------------------

class _AccumulatorBase:
    """Common bookkeeping for the representation accumulators.

    ``dtype`` is the working dtype of the accumulated ``V``/``Y``/``T``
    buffers — float32 accumulators keep the whole Phase-2 application
    (the level-3-rich part of the factorization) in single precision.
    """

    kind = "base"

    def __init__(self, w, dtype=np.float64):
        self.w = signature_vector(w)
        self.dtype = np.dtype(dtype)
        #: ``W`` in the working dtype (and as a column), for the
        #: per-append sign passes.
        self._wf = self.w.astype(self.dtype)
        self._wcol = self._wf[:, None]
        self.k = 0

    @property
    def n(self) -> int:
        return self.w.shape[0]

    def _check(self, refl: HyperbolicHouseholder) -> None:
        if refl.n != self.n:
            raise ShapeError(
                f"reflector size {refl.n} != accumulator size {self.n}")
        if refl.w is not self.w and not np.array_equal(refl.w, self.w):
            raise ShapeError("reflector signature differs from accumulator")

    def append(self, refl: HyperbolicHouseholder) -> None:
        """Fold one more reflector into the representation."""
        self._check(refl)
        self.push(refl.x, refl.beta, refl.support)

    def push(self, x: np.ndarray, beta: float,
             support: np.ndarray | None = None) -> None:
        """Fold in the reflector ``W + β x xᵀ`` given by its parts.

        The unchecked form of :meth:`append` that the Schur column step
        calls: ``x`` must be a length-``n`` vector whose nonzeros lie in
        ``support`` (all of it when ``None``).  Neither ``x`` nor
        ``support`` is kept, so the caller may reuse their buffers.
        """
        raise NotImplementedError

    def reset(self) -> None:
        """Empty the accumulator for the next panel, keeping its buffers
        (:meth:`finish` hands out copies)."""
        self.k = 0

    def finish(self) -> BlockReflector:
        raise NotImplementedError


class VYFirstAccumulator(_AccumulatorBase):
    """Lemma 4.0.1: ``V ← [W V, x]``, ``z = β xᵀ U^{(k)}`` (2 gemv/step).

    ``V``/``Y`` live in capacity-doubling buffers so appends never copy
    the whole factor.
    """

    kind = "vy1"

    def __init__(self, w, dtype=np.float64):
        super().__init__(w, dtype)
        # Fortran order: the live ``[:, :k]`` slice stays F-contiguous,
        # so per-append rank-1 updates run as in-place BLAS ger calls.
        self._buf_v = np.empty((self.n, 4), dtype=self.dtype, order="F")
        self._buf_y = np.empty((self.n, 4), dtype=self.dtype, order="F")

    def _grow(self):
        if self.k == self._buf_v.shape[1]:
            nv = np.empty((self.n, 2 * self.k), dtype=self.dtype, order="F")
            nv[:, :self.k] = self._buf_v
            self._buf_v = nv
            ny = np.empty((self.n, 2 * self.k), dtype=self.dtype, order="F")
            ny[:, :self.k] = self._buf_y
            self._buf_y = ny

    @property
    def _v(self):
        return self._buf_v[:, :self.k]

    @property
    def _y(self):
        return self._buf_y[:, :self.k]

    def push(self, x, beta, support=None) -> None:
        self._grow()
        k = self.k
        if k == 0:
            self._buf_v[:, 0] = x
            self._buf_y[:, 0] = beta * x
            self.k = 1
            return
        v, y = self._v, self._y
        # z = β xᵀ U^{(k)} = β (xᵀ Wᵏ + (xᵀ V) Yᵀ)
        xv = blas.gemv(v, x, trans=True)
        z = blas.gemv(y, xv)  # Y (Vᵀx): (xᵀV)Yᵀ as a column
        z += self._wf * x if k % 2 else x
        blas.charge(z.shape[0], "scal")
        z *= beta
        v *= self._wcol                   # W V_k sign pass, in place
        blas.charge(self.n * k, "scal")
        self._buf_v[:, k] = x
        self._buf_y[:, k] = z
        self.k = k + 1

    def finish(self) -> BlockReflector:
        """Freeze the accumulated product as a BlockReflector."""
        return BlockReflector(self.kind, self.w, self.k,
                              v=self._v.copy(), y=self._y.copy())


class VYSecondAccumulator(_AccumulatorBase):
    """Lemma 4.0.2: ``V ← [U_{k+1} V, x]``, ``z = β xᵀ Wᵏ`` (gemv+ger).

    ``V``/``Y`` live in capacity-doubling buffers so appends never copy
    the whole factor.
    """

    kind = "vy2"

    def __init__(self, w, dtype=np.float64):
        super().__init__(w, dtype)
        # Fortran order: the live ``[:, :k]`` slice stays F-contiguous,
        # so per-append rank-1 updates run as in-place BLAS ger calls.
        self._buf_v = np.empty((self.n, 4), dtype=self.dtype, order="F")
        self._buf_y = np.empty((self.n, 4), dtype=self.dtype, order="F")

    def _grow(self):
        if self.k == self._buf_v.shape[1]:
            nv = np.empty((self.n, 2 * self.k), dtype=self.dtype, order="F")
            nv[:, :self.k] = self._buf_v
            self._buf_v = nv
            ny = np.empty((self.n, 2 * self.k), dtype=self.dtype, order="F")
            ny[:, :self.k] = self._buf_y
            self._buf_y = ny

    @property
    def _v(self):
        return self._buf_v[:, :self.k]

    @property
    def _y(self):
        return self._buf_y[:, :self.k]

    def push(self, x, beta, support=None) -> None:
        self._grow()
        k = self.k
        z = self._buf_y[:, k]
        if k % 2:
            np.multiply(self._wf, x, out=z)
        else:
            z[:] = x
        if k:
            blas.charge(self.n, "scal")
        z *= beta
        if k:
            # U_{k+1} V = W V + β x (xᵀ V): sign pass + gemv + rank-1.
            v = self._v
            xv = blas.gemv(v, x, trans=True)
            v *= self._wcol
            blas.charge(self.n * k, "scal")
            blas.ger(beta, x, xv, v)
        self._buf_v[:, k] = x
        self.k = k + 1

    def finish(self) -> BlockReflector:
        """Freeze the accumulated product as a BlockReflector."""
        return BlockReflector(self.kind, self.w, self.k,
                              v=self._v.copy(), y=self._y.copy())


class YTYAccumulator(_AccumulatorBase):
    """Lemma 4.0.3: ``Y ← [W Y, x]``, ``T ← [[T, 0], [a, b]]``.

    Cheapest to build; ``Y`` and ``T`` together need about half the
    storage of the VY pairs, which is why the paper prefers it when the
    transformation must be broadcast between processors.
    """

    kind = "yty"

    def __init__(self, w, dtype=np.float64):
        super().__init__(w, dtype)
        self._buf_y = np.empty((self.n, 4), dtype=self.dtype)
        self._buf_t = np.zeros((4, 4), dtype=self.dtype)

    def _grow(self):
        if self.k == self._buf_y.shape[1]:
            ny = np.empty((self.n, 2 * self.k), dtype=self.dtype)
            ny[:, :self.k] = self._buf_y
            self._buf_y = ny
            nt = np.zeros((2 * self.k, 2 * self.k), dtype=self.dtype)
            nt[:self.k, :self.k] = self._buf_t[:self.k, :self.k]
            self._buf_t = nt

    @property
    def _y(self):
        return self._buf_y[:, :self.k]

    @property
    def _t(self):
        return self._buf_t[:self.k, :self.k]

    def push(self, x, beta, support=None) -> None:
        self._grow()
        k = self.k
        if k:
            y, t = self._y, self._t
            xy = blas.gemv(y, x, trans=True)      # xᵀY (length k)
            a = blas.gemv(t, xy, trans=True)      # (xᵀY)T row
            blas.charge(k, "scal")
            a *= beta
            y *= self._wcol
            blas.charge(self.n * k, "scal")
            self._buf_t[k, :k] = a
        self._buf_y[:, k] = x
        self._buf_t[k, k] = beta
        self.k = k + 1

    def finish(self) -> BlockReflector:
        """Freeze the accumulated product as a BlockReflector."""
        return BlockReflector(self.kind, self.w, self.k,
                              y=self._y.copy(), t=self._t.copy())


class UnblockedAccumulator(_AccumulatorBase):
    """No blocking: reflectors kept separate, applied sequentially."""

    kind = "unblocked"

    def __init__(self, w, dtype=np.float64):
        super().__init__(w, dtype)
        self._reflectors: list[tuple] = []

    def push(self, x, beta, support=None) -> None:
        self._reflectors.append(
            (np.array(x), beta,
             None if support is None else np.array(support)))
        self.k += 1

    def reset(self) -> None:
        super().reset()
        self._reflectors.clear()

    def finish(self) -> BlockReflector:
        """Freeze the accumulated product as a BlockReflector."""
        return BlockReflector(self.kind, self.w, self.k,
                              reflectors=list(self._reflectors))


class DenseAccumulator(_AccumulatorBase):
    """Naive scheme: multiply the reflectors into an explicit dense ``U``.

    Eq. (25) shows this costs ``≈ 6m³`` flops to build versus ``≈ 2m³``
    for the structured forms — kept as the reference/ablation point.
    """

    kind = "dense"

    def __init__(self, w, dtype=np.float64):
        super().__init__(w, dtype)
        self._u = np.eye(self.n, dtype=self.dtype)

    def push(self, x, beta, support=None) -> None:
        reflect_rows(x, beta, self.w, self._u, support=support)
        blas.charge(2 * self.n * self.n, "gemm")  # dense accumulate cost
        self.k += 1

    def reset(self) -> None:
        super().reset()
        self._u.fill(0.0)
        np.fill_diagonal(self._u, 1.0)

    def finish(self) -> BlockReflector:
        """Freeze the accumulated product as a BlockReflector."""
        return BlockReflector(self.kind, self.w, self.k,
                              u_dense=np.array(self._u))


REPRESENTATIONS = ("vy1", "vy2", "yty", "unblocked", "dense")

_ACCUMULATORS = {
    "vy1": VYFirstAccumulator,
    "vy2": VYSecondAccumulator,
    "yty": YTYAccumulator,
    "unblocked": UnblockedAccumulator,
    "dense": DenseAccumulator,
}


def make_accumulator(representation: str, w,
                     dtype=np.float64) -> _AccumulatorBase:
    """Factory for a reflector-product accumulator by representation name.

    ``dtype`` sets the working dtype of the accumulated buffers (see
    :class:`_AccumulatorBase`).
    """
    try:
        cls = _ACCUMULATORS[representation]
    except KeyError:
        raise ShapeError(
            f"unknown representation {representation!r}; expected one of "
            f"{REPRESENTATIONS}") from None
    return cls(w, dtype)
