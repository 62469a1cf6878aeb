"""Workload generators for the paper's experiments.

Each generator returns a :class:`~repro.toeplitz.SymmetricBlockToeplitz`
in a well-understood class:

* :func:`kms_toeplitz` — Kac–Murdock–Szegő matrices ``t_k = ρ^k``; the
  standard SPD point-Toeplitz test family (used for the 4096-point
  Experiment 1 stand-in).
* :func:`prolate_toeplitz` — ill-conditioned SPD band-limiting matrices.
* :func:`ar_block_toeplitz` — autocovariance sequences of stable vector
  AR(1) processes; SPD block Toeplitz with genuinely dense blocks (the
  multichannel workloads the paper's introduction motivates).
* :func:`spectral_block_toeplitz` — sections of block circulants with a
  prescribed positive matrix spectral density; SPD by construction.
* :func:`indefinite_toeplitz` / :func:`singular_minor_toeplitz` — symmetric
  indefinite families for the Section 8 extension, including matrices with
  *exactly* singular leading principal minors.
* :func:`paper_example_matrix` — the 6 × 6 matrix of eq. (50) verbatim.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg as sla

from repro.errors import ShapeError
from repro.toeplitz.block_toeplitz import SymmetricBlockToeplitz
from repro.utils.rng import default_rng

__all__ = [
    "kms_toeplitz",
    "prolate_toeplitz",
    "ar_block_toeplitz",
    "spectral_block_toeplitz",
    "random_spd_block_toeplitz",
    "indefinite_toeplitz",
    "singular_minor_toeplitz",
    "fgn_toeplitz",
    "ma_banded_toeplitz",
    "paper_example_matrix",
]


def kms_toeplitz(n: int, rho: float = 0.5) -> SymmetricBlockToeplitz:
    """Kac–Murdock–Szegő matrix: first row ``(1, ρ, ρ², …)``.

    Symmetric positive definite for ``|ρ| < 1``; condition number grows
    like ``(1+|ρ|)²/(1−|ρ|)²`` — mild for moderate ρ, which makes it the
    right stand-in for the paper's large point-Toeplitz timing runs.
    """
    if not (0 < n):
        raise ShapeError(f"n must be positive, got {n}")
    if not (abs(rho) < 1):
        raise ShapeError(f"|rho| must be < 1 for positive definiteness, "
                         f"got {rho}")
    row = rho ** np.arange(n)
    return SymmetricBlockToeplitz.from_first_row(row)


def prolate_toeplitz(n: int, bandwidth: float = 0.35) -> SymmetricBlockToeplitz:
    """Prolate matrix: ``t_0 = 2w``, ``t_k = sin(2πwk)/(πk)``.

    SPD for ``0 < w < 1/2`` but notoriously ill-conditioned — exercises the
    factorization's numerical robustness.
    """
    w = bandwidth
    if not (0.0 < w < 0.5):
        raise ShapeError(f"bandwidth must be in (0, 1/2), got {w}")
    k = np.arange(1, n)
    row = np.empty(n)
    row[0] = 2.0 * w
    row[1:] = np.sin(2.0 * np.pi * w * k) / (np.pi * k)
    return SymmetricBlockToeplitz.from_first_row(row)


def ar_block_toeplitz(num_blocks: int, block_size: int, *,
                      spectral_radius: float = 0.6,
                      seed=None) -> SymmetricBlockToeplitz:
    """Autocovariance block Toeplitz of a stable vector AR(1) process.

    With ``x_{t+1} = A x_t + w_t`` (``ρ(A) < 1``, ``cov w = S ≻ 0``), the
    stationary autocovariances satisfy the discrete Lyapunov equation
    ``Γ_0 = A Γ_0 A^T + S`` and ``Γ_k = A Γ_{k−1}``.  The block Toeplitz
    matrix ``[Γ_{j−i}]`` (with ``Γ_{−k} = Γ_k^T``) is the covariance of the
    stacked process and hence symmetric positive definite.
    """
    rng = default_rng(seed)
    m, p = block_size, num_blocks
    if m <= 0 or p <= 0:
        raise ShapeError(f"block_size/num_blocks must be positive, "
                         f"got {m}, {p}")
    a = rng.standard_normal((m, m))
    radius = max(abs(np.linalg.eigvals(a))) if m > 1 else abs(a[0, 0])
    if radius > 0:
        a *= spectral_radius / radius
    g = rng.standard_normal((m, m))
    s = g @ g.T + m * np.eye(m)
    gamma0 = sla.solve_discrete_lyapunov(a, s)
    gamma0 = 0.5 * (gamma0 + gamma0.T)
    blocks = [gamma0]
    for _ in range(1, p):
        blocks.append(a @ blocks[-1])
    return SymmetricBlockToeplitz(blocks)


def spectral_block_toeplitz(num_blocks: int, block_size: int, *,
                            decay: float = 1.0,
                            seed=None) -> SymmetricBlockToeplitz:
    """SPD block Toeplitz with a prescribed positive matrix spectral density.

    Positive semidefinite Hermitian samples ``F(θ_f) = Q_f Q_f^H + εI`` are
    placed on a fine frequency grid with the conjugate symmetry
    ``F(−θ) = conj(F(θ))``; the inverse DFT gives real covariance blocks
    ``T̂_{k+1} = (1/N) Σ_f F(θ_f) e^{i k θ_f}``.  The resulting matrix is a
    principal submatrix of an SPD block circulant, hence SPD.
    """
    rng = default_rng(seed)
    m, p = block_size, num_blocks
    if m <= 0 or p <= 0:
        raise ShapeError(f"block_size/num_blocks must be positive, "
                         f"got {m}, {p}")
    nfreq = 4 * p
    # Hermitian PSD samples with conjugate symmetry across ±θ.
    f = np.empty((nfreq, m, m), dtype=complex)
    for j in range(nfreq // 2 + 1):
        scale = np.exp(-decay * j / nfreq)
        q = (rng.standard_normal((m, m)) +
             1j * rng.standard_normal((m, m))) * scale
        sample = q @ q.conj().T + 0.5 * np.eye(m)
        f[j] = sample
        if 0 < j < nfreq - j:
            f[nfreq - j] = sample.conj()
    blocks_c = np.fft.ifft(f, axis=0)[:p]
    blocks = [np.real(b) for b in blocks_c]
    blocks[0] = 0.5 * (blocks[0] + blocks[0].T)
    return SymmetricBlockToeplitz(blocks)


def random_spd_block_toeplitz(num_blocks: int, block_size: int, *,
                              kind: str = "ar",
                              seed=None) -> SymmetricBlockToeplitz:
    """Random SPD block Toeplitz matrix from one of the named families."""
    if kind == "ar":
        return ar_block_toeplitz(num_blocks, block_size, seed=seed)
    if kind == "spectral":
        return spectral_block_toeplitz(num_blocks, block_size, seed=seed)
    if kind == "kms":
        if block_size != 1:
            t = kms_toeplitz(num_blocks * block_size)
            return t.regroup(block_size)
        return kms_toeplitz(num_blocks)
    raise ShapeError(f"unknown SPD family {kind!r}; "
                     "expected 'ar', 'spectral' or 'kms'")


def indefinite_toeplitz(n: int, *, seed=None,
                        ensure_indefinite: bool = True
                        ) -> SymmetricBlockToeplitz:
    """Random symmetric indefinite scalar Toeplitz matrix.

    Draws first rows until the assembled matrix has eigenvalues of both
    signs (when ``ensure_indefinite``).  Leading principal minors are
    generically nonsingular, exercising the pivot-interchange path of the
    extended Schur algorithm without the perturbation machinery.
    """
    rng = default_rng(seed)
    for _ in range(64):
        row = rng.standard_normal(n)
        row[0] = rng.uniform(-0.5, 0.5)  # small diagonal → indefinite
        t = SymmetricBlockToeplitz.from_first_row(row)
        if not ensure_indefinite:
            return t
        eig = np.linalg.eigvalsh(t.dense())
        if eig[0] < -1e-8 and eig[-1] > 1e-8:
            return t
    raise RuntimeError("failed to draw an indefinite Toeplitz matrix")


def singular_minor_toeplitz(n: int, *, minor: int = 2,
                            seed=None) -> SymmetricBlockToeplitz:
    """Symmetric Toeplitz with an *exactly singular* leading minor.

    Construction: pick the first ``minor`` entries of the first row so the
    ``minor × minor`` leading principal submatrix is singular (constant
    first row ⇒ the all-ones pattern of the paper's example), then extend
    randomly.  The overall matrix is generically nonsingular: a draw is
    kept when ``|det T| > 1e-6``, tested through ``slogdet`` so that a
    large order cannot overflow it.
    """
    rng = default_rng(seed)
    if not (2 <= minor <= n):
        raise ShapeError(f"minor must be in [2, {n}], got {minor}")
    for _ in range(64):
        row = np.empty(n)
        # A constant first row of length `minor` makes the minor-th leading
        # principal submatrix (all-ones pattern) exactly singular.
        row[:minor] = 1.0
        row[minor:] = rng.uniform(-0.9, 0.9, size=n - minor)
        if np.linalg.slogdet(sla.toeplitz(row))[1] > np.log(1e-6):
            return SymmetricBlockToeplitz.from_first_row(row)
    raise RuntimeError("failed to draw a nonsingular matrix with a "
                       "singular leading minor")


def fgn_toeplitz(n: int, hurst: float = 0.75) -> SymmetricBlockToeplitz:
    """Fractional-Gaussian-noise autocovariance Toeplitz matrix.

    ``γ(k) = ½(|k+1|^{2H} − 2|k|^{2H} + |k−1|^{2H})`` for Hurst index
    ``H ∈ (0, 1)``; SPD, with slowly decaying (long-memory) entries for
    ``H > ½`` — a realistic stationary-process workload whose exact
    Gaussian likelihood is the textbook use of Toeplitz solvers.
    """
    if not (0.0 < hurst < 1.0):
        raise ShapeError(f"Hurst index must be in (0, 1), got {hurst}")
    if n <= 0:
        raise ShapeError(f"n must be positive, got {n}")
    k = np.arange(n, dtype=np.float64)
    h2 = 2.0 * hurst
    row = 0.5 * (np.abs(k + 1) ** h2 - 2 * np.abs(k) ** h2
                 + np.abs(k - 1) ** h2)
    return SymmetricBlockToeplitz.from_first_row(row)


def ma_banded_toeplitz(n: int, theta=(0.6, 0.3), *,
                       block_size: int = 1) -> SymmetricBlockToeplitz:
    """Banded SPD Toeplitz: covariance of an MA(q) process.

    ``x_t = w_t + Σ θ_i w_{t−i}`` has autocovariances that vanish beyond
    lag ``q`` — the band structure exercises the factorization's handling
    of exact zeros in the generator.
    """
    if n <= 0:
        raise ShapeError(f"n must be positive, got {n}")
    coef = np.concatenate([[1.0], np.asarray(theta, dtype=np.float64)])
    q = coef.size - 1
    row = np.zeros(n)
    for k in range(min(q, n - 1) + 1):
        row[k] = float(np.dot(coef[k:], coef[:coef.size - k]))
    t = SymmetricBlockToeplitz.from_first_row(row)
    if block_size > 1:
        t = t.regroup(block_size)
    return t


def paper_example_matrix() -> SymmetricBlockToeplitz:
    """The 6 × 6 symmetric Toeplitz matrix of eq. (50).

    First row ``(1.0, 1.0, 0.5297, 0.6711, 0.0077, 0.3834)``; its 2 × 2
    leading principal minor ``[[1, 1], [1, 1]]`` is singular, triggering
    the perturbation + iterative-refinement path of Section 8.
    """
    row = np.array([1.0000, 1.0000, 0.5297, 0.6711, 0.0077, 0.3834])
    return SymmetricBlockToeplitz.from_first_row(row)
