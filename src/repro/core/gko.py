"""Nonsymmetric (block) Toeplitz solves: GKO Cauchy-like LU.

The symmetric algorithm of the paper lives in the displacement framework
of Kailath, Kung & Morf [8]; the same framework yields a fast solver for
*nonsymmetric* block Toeplitz systems (Gohberg–Kailath–Olshevsky):

1. With the φ-cyclic block shifts ``Z_φ``, the Sylvester displacement
   ``Z₁ T − T Z₋₁`` of a block Toeplitz matrix is supported on the first
   block row and last block column only — rank ≤ 2m.
2. The block DFT diagonalizes the cyclic shifts, turning ``T`` into a
   *Cauchy-like* matrix ``C`` with node sets ``{ω^k}`` and ``{θ ω^k}``
   (interleaved roots of unity, never equal):
   ``D₁ C − C D₂ = Ĝ B̂``.
3. Cauchy-like structure survives both Schur complementation and row
   permutation, so an ``O(α n²)`` LU **with partial pivoting** runs
   entirely on the 2m-column generators.

This gives the library a numerically robust fast solver for the
nonsymmetric case that the hyperbolic (symmetric) machinery cannot
address, at the cost of complex arithmetic internally.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.packed import mapped_zeros
from repro.core.precision import complex_working_dtype, validate_precision
from repro.errors import BreakdownError, ShapeError
from repro.toeplitz.block_toeplitz import BlockToeplitz, \
    SymmetricBlockToeplitz
from repro.utils.lintools import as_panel, from_panel

__all__ = [
    "cyclic_displacement_generators",
    "toeplitz_to_cauchy",
    "cauchy_like_lu",
    "CauchyLikeLU",
    "gko_factor",
    "solve_toeplitz_gko",
]


def _as_general(t) -> BlockToeplitz:
    if isinstance(t, SymmetricBlockToeplitz):
        return BlockToeplitz.from_symmetric(t)
    if isinstance(t, BlockToeplitz):
        return t
    raise ShapeError(
        "expected a BlockToeplitz or SymmetricBlockToeplitz matrix")


def cyclic_displacement_generators(t) -> tuple[np.ndarray, np.ndarray]:
    """Rank-2m factorization ``Z₁ T − T Z₋₁ = G B``.

    ``Z_φ`` is the block-cyclic down-shift with ``φ·I`` in the corner.
    The displacement is supported on the first block row and the last
    block column; we return ``G (n × 2m)`` and ``B (2m × n)`` built in
    ``O(m² p)`` directly from the defining blocks.
    """
    t = _as_general(t)
    m, p, n = t.block_size, t.num_blocks, t.order
    if p < 2:
        raise ShapeError("GKO transform needs at least 2 block rows")
    row = t.first_block_row   # B_d, d ≥ 0
    col = t.first_block_col   # B_{−d}

    # ∇ is supported on block row 0 and block column p−1:
    #   ∇[0, j]    = B_{j−p+1} − B_{j+1}          (j ≤ p−2)
    #   ∇[i, p−1]  = B_{p−i} + B_{−i}             (i ≥ 1)
    #   ∇[0, p−1]  = 2 B_0                         (overlap → row part)
    # Exact rank-2m split ∇ = E₀·A + Bc·E_{p−1}ᵀ with Bc's first block 0.
    a = np.zeros((m, n))
    for j in range(p - 1):
        a[:, j * m:(j + 1) * m] = col[p - 1 - j] - row[j + 1]
    a[:, (p - 1) * m:] = 2.0 * row[0]
    bc = np.zeros((n, m))
    for i in range(1, p):
        bc[i * m:(i + 1) * m] = row[p - i] + col[i]
    g = np.zeros((n, 2 * m))
    g[:m, :m] = np.eye(m)
    g[:, m:] = bc
    b = np.zeros((2 * m, n))
    b[:m, :] = a
    b[m:, n - m:] = np.eye(m)
    return g, b


def toeplitz_to_cauchy(t) -> tuple[np.ndarray, np.ndarray, np.ndarray,
                                   np.ndarray]:
    """Transform to Cauchy-like form: ``D₁ C − C D₂ = Ĝ B̂``.

    Returns ``(ghat, bhat, d1, d2)`` where ``C = (F⊗I) T (D̂⁻¹⊗I)(F*⊗I)``
    never needs to be formed: the LU runs from the generators and nodes.
    """
    t = _as_general(t)
    m, p, n = t.block_size, t.num_blocks, t.order
    g, b = cyclic_displacement_generators(t)
    omega = np.exp(2j * np.pi / p)
    theta = np.exp(1j * np.pi / p)
    d1 = np.repeat(omega ** np.arange(p), m)
    d2 = theta * d1

    f = np.exp(2j * np.pi * np.outer(np.arange(p),
                                     np.arange(p)) / p) / np.sqrt(p)
    dhat = np.repeat(theta ** np.arange(p), m)

    def block_dft(x, conj=False):
        """(F ⊗ I_m) x for column-stacked x (n × k)."""
        fm = f.conj() if conj else f
        xs = x.reshape(p, m, -1)
        return np.einsum("pq,qmr->pmr", fm, xs).reshape(n, -1)

    ghat = block_dft(g.astype(complex))
    # b̂ = B (D̂⁻¹ ⊗ I)(F* ⊗ I): transform the columns of Bᵀ
    btmp = (b.astype(complex) * (1.0 / dhat)[None, :]).T  # n × 2m
    bhat = block_dft(btmp, conj=True).T
    return ghat, bhat, d1, d2


@dataclass
class CauchyLikeLU:
    """``P C = L U`` from :func:`cauchy_like_lu` plus the Toeplitz
    back-transformation data."""

    l: np.ndarray
    u: np.ndarray
    perm: np.ndarray
    block_size: int
    num_blocks: int
    #: Precision the factorization ran at (``"fp64"``/``"fp32"``/``"mixed"``;
    #: both reduced modes factor in complex64 — there is no hyperbolic
    #: elimination here to split from the accumulation).
    precision: str = "fp64"
    #: The ``(ĝ, b̂, d₁, d₂)`` Cauchy-like generators the LU was built
    #: from (complex128, as produced by :func:`toeplitz_to_cauchy`).
    #: ``O(mn)`` data that deterministically rebuilds ``L``/``U``/``perm``
    #: — the compact form the persistent factorization cache stores
    #: instead of the ``O(n²)`` dense factors.  ``None`` for hand-built
    #: instances.
    generators: tuple | None = None

    @property
    def order(self) -> int:
        return self.l.shape[0]

    @property
    def dtype(self) -> np.dtype:
        """Real dtype of the solves this factor drives (complex64 → f32)."""
        return np.dtype(np.float32 if self.l.dtype == np.complex64
                        else np.float64)

    def solve_cauchy(self, rhs: np.ndarray) -> np.ndarray:
        """Solve ``C y = rhs`` (complex)."""
        import scipy.linalg as sla
        y = rhs[self.perm]
        z = sla.solve_triangular(self.l, y, lower=True,
                                 unit_diagonal=True, check_finite=False)
        return sla.solve_triangular(self.u, z, lower=False,
                                    check_finite=False)

    def _transform_data(self):
        """Cached back-transformation data ``(F, D̂)``.

        Built lazily on first solve and reused for every later one, so
        a batched or repeated :meth:`solve` pays the ``O(p²)`` DFT-matrix
        construction once per factorization rather than per call.
        """
        cached = getattr(self, "_bd_cache", None)
        if cached is None:
            m, p = self.block_size, self.num_blocks
            f = np.exp(2j * np.pi * np.outer(np.arange(p),
                                             np.arange(p)) / p) / np.sqrt(p)
            theta = np.exp(1j * np.pi / p)
            dhat = np.repeat(theta ** np.arange(p), m)
            # Transform data in the factor's dtype so a complex64 LU
            # keeps the whole solve pipeline in single precision.
            cached = (f.astype(self.l.dtype), dhat.astype(self.l.dtype))
            self._bd_cache = cached
        return cached

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Solve the original block Toeplitz system ``T X = B`` (real).

        ``b`` may be a vector or an ``n × k`` panel; the Cauchy-domain
        triangular sweeps and both block DFTs run across the whole panel
        in single level-3 calls.
        """
        bc, single = as_panel(b, self.order, dtype=self.dtype)
        m, p, n = self.block_size, self.num_blocks, self.order
        f, dhat = self._transform_data()

        def bd(x, conj=False):
            fm = f.conj() if conj else f
            xs = x.reshape(p, m, -1)
            return np.einsum("pq,qmr->pmr", fm, xs).reshape(n, -1)

        rhs = bd(bc.astype(self.l.dtype))      # (F⊗I) b
        z = self.solve_cauchy(rhs)
        x = bd(z, conj=True)                   # (F*⊗I) z
        x = x / dhat[:, None]                  # (D̂⁻¹⊗I)
        imag = float(np.max(np.abs(x.imag)))
        scale = max(1.0, float(np.max(np.abs(x.real))))
        # The imaginary residue sits at rounding level of the factor's
        # precision (accumulated over the O(n²) sweeps).
        imag_tol = 1e-2 if self.l.dtype == np.complex64 else 1e-6
        if imag > imag_tol * scale:
            raise BreakdownError(
                f"solution has non-negligible imaginary part {imag:.2e}")
        return from_panel(np.ascontiguousarray(x.real), single)


def cauchy_like_lu(ghat: np.ndarray, bhat: np.ndarray,
                   d1: np.ndarray, d2: np.ndarray, *,
                   block_size: int = 1,
                   singular_tol: float | None = None,
                   dtype=complex) -> CauchyLikeLU:
    """LU with partial pivoting of the Cauchy-like matrix, ``O(α n²)``.

    The column of the active Schur complement is reconstructed from the
    generators at every step (``C_ij = Ĝ_i B̂_j / (d1_i − d2_j)``), the
    largest entry chosen as pivot, and the generators updated by the
    rank-one GKO recurrences — Cauchy-like structure is closed under
    both operations, which is what makes *pivoted* fast LU possible.

    ``dtype`` is the complex working dtype of the generators and the
    ``L``/``U`` factors (the interleaved root-of-unity nodes stay in
    complex128 — they cost nothing and anchor the pivot geometry);
    ``singular_tol`` defaults to ``1e-13`` in complex128 and ``1e-6`` in
    complex64.
    """
    dtype = np.dtype(dtype)
    if singular_tol is None:
        singular_tol = 1e-6 if dtype == np.complex64 else 1e-13
    g = np.array(ghat, dtype=dtype)
    b = np.array(bhat, dtype=dtype)
    d1 = np.array(d1, dtype=complex)
    d2 = np.asarray(d2, dtype=complex)
    n = g.shape[0]
    if b.shape[1] != n or d1.shape[0] != n or d2.shape[0] != n:
        raise ShapeError("generator/node dimensions disagree")
    l = mapped_zeros((n, n), dtype)
    np.fill_diagonal(l, 1.0)
    u = mapped_zeros((n, n), dtype)
    perm = np.arange(n)
    scale = float(np.max(np.abs(g)) * np.max(np.abs(b))) or 1.0
    for k in range(n):
        colk = (g[k:] @ b[:, k]) / (d1[k:] - d2[k])
        j = int(np.argmax(np.abs(colk)))
        if abs(colk[j]) <= singular_tol * scale:
            raise BreakdownError(
                f"Cauchy-like LU: (numerically) singular at step {k}")
        if j != 0:
            jj = k + j
            g[[k, jj]] = g[[jj, k]]
            d1[[k, jj]] = d1[[jj, k]]
            l[[k, jj], :k] = l[[jj, k], :k]
            perm[[k, jj]] = perm[[jj, k]]
            colk[[0, j]] = colk[[j, 0]]
        piv = colk[0]
        u[k, k] = piv
        if k + 1 < n:
            rowk = (g[k] @ b[:, k + 1:]) / (d1[k] - d2[k + 1:])
            u[k, k + 1:] = rowk
            lcol = colk[1:] / piv
            l[k + 1:, k] = lcol
            g[k + 1:] -= np.outer(lcol, g[k])
            b[:, k + 1:] -= np.outer(b[:, k], rowk / piv)
    return CauchyLikeLU(l=l, u=u, perm=perm, block_size=block_size,
                        num_blocks=n // block_size)


def gko_factor(t, *, precision: str = "fp64") -> CauchyLikeLU:
    """Factor once, solve many: the pivoted Cauchy-like LU of ``T``.

    Returns a :class:`CauchyLikeLU` whose :meth:`~CauchyLikeLU.solve`
    handles any number of right-hand sides at ``O(n²)`` each.
    ``precision="fp32"`` (and ``"mixed"``, which has no separate meaning
    here — there is no hyperbolic elimination to split) runs the LU in
    complex64; route the solve through refinement for fp64 accuracy.
    """
    validate_precision(precision)
    tg = _as_general(t)
    ghat, bhat, d1, d2 = toeplitz_to_cauchy(tg)
    fact = cauchy_like_lu(ghat, bhat, d1, d2, block_size=tg.block_size,
                          dtype=complex_working_dtype(precision))
    fact.precision = precision
    fact.generators = (ghat, bhat, d1, d2)
    return fact


def solve_toeplitz_gko(t, b: np.ndarray) -> np.ndarray:
    """Solve a (possibly nonsymmetric) block Toeplitz system ``T x = b``.

    ``O(m n²)`` with partial pivoting — the robust companion to the
    symmetric Schur solvers for general block Toeplitz systems.
    """
    return gko_factor(t).solve(b)
