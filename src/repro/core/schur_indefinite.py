"""Extended Schur algorithm for symmetric indefinite Toeplitz systems.

Section 8 of the paper.  Three regimes:

* **indefinite, nonsingular minors** — the blocked algorithm goes through
  with *row interchanges* keeping the pivot on the diagonal of the pivot
  block; the result is ``T = Rᵀ D R`` with ``D = diag(±1)``.
* **singular principal minors** — a pivot column of the generator has
  (numerically) zero hyperbolic norm.  The pivot element is perturbed by a
  relative ``δ ≈ ∛ε`` (the value minimizing the total error
  ``δ + ε/δ²`` of eq. 45), producing an exact factorization of a nearby
  matrix ``T + δT`` with ``‖δT‖/‖T‖ = O(∛ε)``; iterative refinement
  (:mod:`repro.core.refinement`) then restores full accuracy in ~2 steps.

A target row of the right signature always exists when the hyperbolic norm
is nonzero: if ``W_kk·h < 0`` then ``Σ_k = −sign(h)``, so the lower half
signature ``−Σ`` contains ``sign(h)``.

The elimination here applies reflectors sequentially across the full
working width (a level-2 path): with interchanges the window signature
mutates mid-block, which invalidates a half-built blocked representation.
The paper notes the indefinite variant performs like the SPD one when
interchanges are rare; all performance experiments use the SPD path.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

import repro.obs as obs
from repro.blas import primitives as blas
from repro.core.generator import Generator, indefinite_generator
from repro.core.packed import PackedUpper
from repro.core.precision import flush_tiny, validate_precision, working_dtype
from repro.core.schur_spd import ColumnStep
from repro.errors import BreakdownError, SingularMinorError
from repro.obs import health
from repro.toeplitz.block_toeplitz import SymmetricBlockToeplitz
from repro.utils.lintools import as_panel, from_panel

__all__ = [
    "PerturbationEvent",
    "InterchangeEvent",
    "IndefiniteFactorization",
    "schur_indefinite_factor",
    "default_delta",
]


def default_delta(dtype=np.float64) -> float:
    """The paper's perturbation size ``δ = ∛ε`` (eq. 46).

    ``ε`` is the unit roundoff of the factorization's working dtype —
    a float32 factorization perturbs at ``∛ε₃₂ ≈ 5e-3``.
    """
    return float(np.finfo(dtype).eps ** (1.0 / 3.0))


@dataclass(frozen=True)
class PerturbationEvent:
    """A pivot perturbation performed to pass a singular principal minor."""

    step: int            #: block step (0-based)
    column: int          #: column within the block (0-based)
    scalar_index: int    #: global scalar pivot index in T
    delta: float         #: relative perturbation applied to the pivot
    norm_before: float   #: hyperbolic norm of the pivot column before
    norm_after: float    #: hyperbolic norm after the perturbation


@dataclass(frozen=True)
class InterchangeEvent:
    """A row interchange keeping the pivot on the block diagonal."""

    step: int
    column: int
    lower_row: int       #: index (within the 2m window) swapped with


@dataclass
class IndefiniteFactorization:
    """Result of :func:`schur_indefinite_factor`: ``T + δT = Rᵀ D R``.

    ``R`` is upper triangular with positive diagonal, held in ``packed``
    (``n(n+1)/2`` words, see :mod:`repro.core.packed`); ``d`` is the ±1
    diagonal of ``D``.  ``δT = 0`` when ``perturbations`` is empty.
    """

    packed: PackedUpper
    d: np.ndarray
    block_size: int
    num_blocks: int
    perturbations: list[PerturbationEvent] = field(default_factory=list)
    interchanges: list[InterchangeEvent] = field(default_factory=list)
    #: 2-norm estimate of the largest hyperbolic transformation applied
    #: at each block step — the growth quantity of the §8.2 analysis
    #: (≈ 2/√δ right after a perturbation).
    transform_norms: list[float] = field(default_factory=list)
    #: Precision the factorization ran at (``"fp64"``/``"fp32"``).
    precision: str = "fp64"

    @property
    def r(self) -> np.ndarray:
        """Dense read-only ``R``: unpacked on first access, then kept.

        Solves never read it; it exists for inspection and tests.
        """
        return self.packed.dense

    @property
    def order(self) -> int:
        return self.packed.n

    @property
    def dtype(self) -> np.dtype:
        """Storage dtype of the triangular factor."""
        return self.packed.dtype

    @property
    def perturbed(self) -> bool:
        return bool(self.perturbations)

    @property
    def max_transform_norm(self) -> float:
        """Largest per-step transformation norm (1.0 for SPD inputs)."""
        return max(self.transform_norms, default=1.0)

    @property
    def inertia(self) -> tuple[int, int]:
        """(number of positive, number of negative) eigenvalues of
        ``T + δT`` by Sylvester's law of inertia."""
        pos = int(np.sum(self.d > 0))
        return pos, self.order - pos

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Solve ``(T + δT) X = B`` via ``Rᵀ D R X = B``.

        ``b`` may be a vector or an ``n × k`` panel; the panel case runs
        the ``Rᵀ``/``R`` sweeps as level-3 packed solves with one
        broadcast signature scaling in between.
        """
        panel, single = as_panel(b, self.order, dtype=self.dtype)
        y = self.packed.solve(panel, trans=True)
        y *= self.d.astype(y.dtype)[:, None]
        return from_panel(self.packed.solve(y, overwrite_b=True), single)

    def reconstruct(self) -> np.ndarray:
        """Dense ``Rᵀ D R`` (equals ``T + δT``)."""
        return self.r.T @ (self.d.astype(np.float64)[:, None] * self.r)

    def logabsdet(self) -> tuple[float, int]:
        """``(log |det|, sign of det)`` of ``T + δT``."""
        logdet = 2.0 * float(
            np.sum(np.log(np.abs(self.packed.diagonal()))))
        sign = int(np.prod(self.d))
        return logdet, sign


def _eliminate_block_indefinite(upper: np.ndarray, lower: np.ndarray,
                                w: np.ndarray, *, step: int, delta: float,
                                perturb: bool, perturb_threshold: float,
                                scale0: float,
                                events_p: list[PerturbationEvent],
                                events_i: list[InterchangeEvent]) -> float:
    """One block step of the extended algorithm (interchanges + δ).

    ``scale0`` is the hyperbolic-norm scale of the *original* matrix
    (``≈ ‖T‖``): pivot norms are compared against it, not against the
    current column norm — after a δ-perturbation the generator grows to
    ``O(1/δ)`` while legitimate pivot norms stay at the ``‖T‖`` scale,
    so a column-relative test would misclassify every later pivot.

    The pivot decision logic (hyperbolic norms, perturbation and
    interchange tests) always runs in float64 regardless of the working
    dtype.
    """
    m, q = upper.shape
    n2 = 2 * m
    wf = w.astype(np.float64)
    max_norm = 1.0
    # Fortran-ordered working copies: the column step updates in place.
    fu = np.asfortranarray(upper)
    fl = np.asfortranarray(lower)
    column = ColumnStep(w, upper.dtype)
    for k in range(m):
        u = np.zeros(n2, dtype=upper.dtype)
        u[k] = fu[k, k]
        u[m:] = fl[:, k]
        h = float(np.dot(wf * u, u))
        unorm2 = float(np.dot(u, u))
        if unorm2 == 0.0:
            raise SingularMinorError(
                "generator pivot column vanished entirely", step=step)
        if abs(h) <= perturb_threshold * scale0:
            if not perturb:
                raise SingularMinorError(
                    f"singular principal minor at block step {step}, "
                    f"column {k} (|uᵀWu| = {abs(h):.3e}, scale = "
                    f"{scale0:.3e}); retry with perturb=True", step=step)
            h_before = h
            # Perturb the pivot element (relative δ/2 change, doubled
            # until the norm sign matches the target axis).
            eps = 0.5 * delta * u[k] if u[k] != 0.0 else \
                delta * float(np.sqrt(scale0))
            ok = False
            for _ in range(60):
                cand = u.copy()
                cand[k] = u[k] + eps
                h_new = float(np.dot(wf * cand, cand))
                if w[k] * h_new > 0.0:
                    u = cand
                    fu[k, k] = u[k]
                    h = h_new
                    ok = True
                    break
                eps *= 2.0
            if not ok:
                raise BreakdownError(
                    "perturbation failed to restore a usable pivot")
            events_p.append(PerturbationEvent(
                step=step, column=k, scalar_index=step * m + k,
                delta=float(eps / u[k]) if u[k] != 0 else float(eps),
                norm_before=h_before, norm_after=h))
        elif w[k] * h < 0.0:
            # Interchange with the lower row of matching signature that
            # carries the largest pivot mass.
            cand = [l for l in range(m, n2) if w[l] * h > 0.0]
            # Always nonempty: W_kk·h<0 ⇒ Σ_k = −sign(h) ⇒ sign(h) ∈ −Σ.
            l = max(cand, key=lambda idx: abs(u[idx]))
            lr = l - m
            tmp = fu[k].copy()
            fu[k] = fl[lr]
            fl[lr] = tmp
            w[k], w[l] = w[l], w[k]
            wf = w.astype(np.float64)
            column = ColumnStep(w, upper.dtype)
            events_i.append(InterchangeEvent(step=step, column=k,
                                             lower_row=l))
        x, beta = column(fu[:, k:], fl[:, k:], k)
        # The eliminated columns left of k see only U's sign flip (its
        # rank-1 part vanishes on them).
        if k and not column.wu_identity:
            fu[:, :k] *= column.wf[:m, None]
        # ‖U_x‖₂ ≤ 1 + 2‖x‖²/|xᵀWx| = 1 + |β|‖x‖² — equality-order proxy
        # for the growth factor the §8.2 error analysis tracks.
        max_norm = max(max_norm, 1.0 + abs(beta) * float(x @ x))
        blas.charge(0, "indefinite-step")
    upper[:] = fu
    lower[:] = fl
    neg = np.diag(upper[:, :m]) < 0
    if np.any(neg):
        upper[neg] *= -1.0
    return max_norm


def schur_indefinite_factor(t: SymmetricBlockToeplitz | Generator, *,
                            perturb: bool = True,
                            delta: float | None = None,
                            perturb_threshold: float | None = None,
                            singular_tol: float = 1e-13,
                            precision: str = "fp64"
                            ) -> IndefiniteFactorization:
    """Factor a symmetric (indefinite) block Toeplitz matrix as
    ``T + δT = Rᵀ D R``.

    Parameters
    ----------
    t : SymmetricBlockToeplitz or Generator
        The matrix or its precomputed indefinite generator.
    perturb : bool
        Allow pivot perturbations across singular principal minors
        (Section 8.2).  When ``False`` a singular minor raises
        :class:`~repro.errors.SingularMinorError`.
    delta : float
        Relative perturbation size; defaults to ``∛ε`` (eq. 46).
    perturb_threshold : float
        Pivot columns with ``|uᵀWu| ≤ threshold · ‖u‖²`` are treated as
        singular.  Defaults to ``δ``: below that level the transformation
        norm would exceed the ``1/δ`` the perturbation analysis budgets
        for, so perturbing is the stabler choice.
    singular_tol : float
        Tolerance for the signed Cholesky of the diagonal block.
    precision : str
        Working precision (``"fp64"``/``"fp32"``, see
        :mod:`repro.core.precision`).  ``δ`` defaults to the cube root
        of the working dtype's unit roundoff.

    Notes
    -----
    When ``perturbations`` is non-empty the factorization is of a nearby
    matrix; solve through :func:`repro.core.refinement.refine` (or
    :func:`repro.core.solve.solve_refined`) to recover full accuracy.
    """
    validate_precision(precision)
    wd = working_dtype(precision)
    if delta is None:
        delta = default_delta(wd)
    if perturb_threshold is None:
        perturb_threshold = delta
    with obs.span("schur.generator"):
        if isinstance(t, Generator):
            g = t.copy()
        else:
            g = indefinite_generator(t, singular_tol=singular_tol, dtype=wd)
        if g.gen.dtype != wd:
            g = g.astype(wd)
    m, p = g.block_size, g.num_blocks
    n = m * p
    r = PackedUpper.zeros(n, dtype=wd)
    d = np.zeros(n, dtype=np.int8)
    w = g.w.copy()
    top = g.gen[:m]
    bot = g.gen[m:]
    flush_tiny(g.gen)
    events_p: list[PerturbationEvent] = []
    events_i: list[InterchangeEvent] = []
    transform_norms: list[float] = []
    # Hyperbolic pivot norms live at the ‖T‖ scale; Gen entries are
    # ≈ √‖T‖, so the squared initial generator magnitude sets the scale.
    scale0 = float(np.max(np.abs(g.gen))) ** 2
    if scale0 == 0.0:
        scale0 = 1.0
    # Block step 0: the first block row of R is the top generator row;
    # its signature is the current upper-half signature.
    r.write_rows(0, top)
    d[:m] = w[:m]
    with obs.span("schur.eliminate", order=n, block_size=m,
                  delta=delta) as sp:
        for i in range(1, p):
            q = n - i * m
            upper = top[:, :q]
            lower = bot[:, i * m:]
            step_norm = _eliminate_block_indefinite(
                upper, lower, w, step=i, delta=delta, perturb=perturb,
                perturb_threshold=perturb_threshold, scale0=scale0,
                events_p=events_p, events_i=events_i)
            transform_norms.append(step_norm)
            if obs.enabled():
                health.record_growth_factor(i, step_norm)
            # fp32: keep the decaying generator out of the subnormal
            # range (subnormal sgemm runs ~30× slower).
            flush_tiny(upper)
            flush_tiny(lower)
            r.write_rows(i * m, upper)
            d[i * m:(i + 1) * m] = w[:m]
        sp.set(perturbations=len(events_p), interchanges=len(events_i),
               max_transform_norm=(max(transform_norms)
                                   if transform_norms else 0.0))
    if obs.enabled():
        health.record_indefinite_events(len(events_p), len(events_i))
    return IndefiniteFactorization(r, d, m, p,
                                   perturbations=events_p,
                                   interchanges=events_i,
                                   transform_norms=transform_norms,
                                   precision=precision)
