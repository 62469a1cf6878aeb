"""The block Schur factorization for SPD block Toeplitz matrices.

Implements the three-phase loop of Sections 5–6:

1. **Phase 1** — build the ``2m × 2m`` block hyperbolic Householder
   transformation ``U`` that eliminates the leading block of the lower
   generator row against the (upper-triangular) pivot block, using one of
   the representations of Section 4 and optional two-level blocking
   (panel width ``k ≤ m``, Section 6.2);
2. **Phase 2** — apply ``U`` to the remainder of the generator and copy
   the upper row into the triangular factor;
3. **Phase 3** — shift the upper row one block right.  The default
   implementation is the *in-place* variant of Section 6.4 (used by the
   authors on the Cray Y-MP): instead of physically shifting, ``U`` is
   applied to offset views of the two generator rows, so Phase 3
   disappears.  The explicit-shift variant (what a distributed memory
   implementation must do) is kept behind ``in_place=False`` and tested
   equal.

The factorization satisfies ``T = Rᵀ R`` with ``R`` upper triangular
(eq. 8); ``L = Rᵀ`` is the Cholesky factor.
"""

from __future__ import annotations

from contextlib import ExitStack
from dataclasses import dataclass, field

import numpy as np

import repro.obs as obs
from repro.blas import primitives as blas
from repro.core.block_reflector import (
    REPRESENTATIONS,
    BlockReflector,
    make_accumulator,
)
from repro.core.generator import Generator, spd_generator
from repro.core.hyperbolic import reflector_annihilating
from repro.core.packed import PackedUpper
from repro.core.precision import (
    elimination_dtype,
    flush_tiny,
    validate_precision,
    working_dtype,
)
from repro.errors import (
    BreakdownError,
    InvalidOptionError,
    NotPositiveDefiniteError,
    ShapeError,
)
from repro.obs import health
from repro.toeplitz.block_toeplitz import SymmetricBlockToeplitz
from repro.utils.lintools import as_panel, from_panel

__all__ = [
    "SchurOptions",
    "SPDFactorization",
    "schur_spd_factor",
    "eliminate_block",
]


@dataclass(frozen=True)
class SchurOptions:
    """Tuning knobs for the factorization (the paper's trade-off axes).

    Attributes
    ----------
    representation : str
        Block reflector representation: ``"vy1"``, ``"vy2"``, ``"yty"``,
        ``"unblocked"`` or ``"dense"``.
    panel : int or None
        Two-level blocking width ``k`` (Section 6.2); ``None`` means one
        panel of the full block size ``m``.
    in_place : bool
        Use the shift-free in-place update of Section 6.4 (default) or
        the explicit Phase-3 shift.
    normalize_diagonal : bool
        Flip generator rows after each elimination so the pivot (and thus
        the Cholesky) diagonal stays positive.
    breakdown_tol : float
        Relative threshold below which a pivot's hyperbolic norm is
        treated as zero.
    precision : str
        Working precision of the factorization: ``"fp64"`` (default),
        ``"fp32"`` (single-precision generator, elimination and factor)
        or ``"mixed"`` (float64 generator accumulation with each pivot
        column rounded through float32 before the hyperbolic reflector
        is built — the elimination decisions see fp32 data while the
        level-3 updates keep fp64 accumulation).
    """

    representation: str = "vy2"
    panel: int | None = None
    in_place: bool = True
    normalize_diagonal: bool = True
    breakdown_tol: float = 1e-14
    precision: str = "fp64"

    def __post_init__(self):
        if self.representation not in REPRESENTATIONS:
            raise InvalidOptionError(
                f"unknown representation {self.representation!r}; "
                f"expected one of {REPRESENTATIONS}")
        validate_precision(self.precision)


@dataclass
class SPDFactorization:
    """Result of :func:`schur_spd_factor`: ``T = Rᵀ R``.

    ``R`` lives in ``packed`` (``n(n+1)/2`` words, see
    :mod:`repro.core.packed`); :attr:`r` is a dense copy for callers
    that want one.
    """

    packed: PackedUpper
    block_size: int
    num_blocks: int
    options: SchurOptions
    #: Block reflectors produced at each step (kept only on request).
    reflectors: list[BlockReflector] = field(default_factory=list)
    #: Precision the factorization ran at (``"fp64"``/``"fp32"``/``"mixed"``).
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
    def l(self) -> np.ndarray:
        """Lower-triangular Cholesky factor ``L = Rᵀ``."""
        return self.r.T

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Solve ``T X = B`` via ``Rᵀ (R X) = B``.

        ``b`` may be a vector or an ``n × k`` panel of right-hand
        sides; the panel case runs each triangular sweep as one level-3
        packed solve across all ``k`` columns.  The sweeps run in the
        factor's storage dtype — a float32 factorization solves in
        float32 (callers wanting fp64 accuracy route the result through
        :func:`repro.core.refinement.refine`).
        """
        panel, single = as_panel(b, self.order, dtype=self.dtype)
        y = self.packed.solve(panel, trans=True)
        return from_panel(self.packed.solve(y, overwrite_b=True), single)

    def reconstruct(self) -> np.ndarray:
        """Dense ``Rᵀ R`` (diagnostic)."""
        return self.r.T @ self.r

    def logdet(self) -> float:
        """``log det T = 2 Σ log R_ii``."""
        return 2.0 * float(np.sum(np.log(np.abs(self.packed.diagonal()))))


def _apply_reflector_pair(refl, upper: np.ndarray, lower: np.ndarray,
                          pivot_row: int, *,
                          wu_identity: bool | None = None,
                          wl_negidentity: bool | None = None) -> None:
    """Apply one sparse reflector to the (upper, lower) column views.

    The reflector vector is supported on row ``pivot_row`` of the upper
    half plus the whole lower half (Figure 1's pattern).  Signature signs
    are applied to *all* rows (required in the indefinite case where the
    upper signature is not the identity).  Callers in a loop pass the
    precomputed uniformity flags of the two signature halves.
    """
    m = upper.shape[0]
    x = refl.x
    w = refl.w
    beta = refl.beta
    xk = x[pivot_row]
    xlow = x[m:]
    # t = xᵀ [upper; lower] restricted to the support.
    t = xk * upper[pivot_row] + blas.gemv(lower, xlow, trans=True)
    blas.charge(2 * upper.shape[1], "axpy")
    if wu_identity is None:
        wu_identity = bool(np.all(w[:m] == 1))
    if not wu_identity:
        upper *= w[:m].astype(upper.dtype)[:, None]
        blas.charge(upper.size, "scal")
    if wl_negidentity is None:
        wl_negidentity = bool(np.all(w[m:] == -1))
    if wl_negidentity:
        np.negative(lower, out=lower)
    else:
        lower *= w[m:].astype(lower.dtype)[:, None]
    blas.charge(lower.size, "scal")
    row = upper[pivot_row]
    blas.charge(2 * row.shape[0], "axpy")
    row += (beta * xk) * t
    blas.ger(beta, xlow, t, lower)


def eliminate_block(upper: np.ndarray, lower: np.ndarray, w: np.ndarray, *,
                    representation: str = "vy2",
                    panel: int | None = None,
                    breakdown_tol: float = 1e-14,
                    pivot_sign_fixup: bool = True,
                    elim_dtype: np.dtype | None = None,
                    collect: list[BlockReflector] | None = None) -> None:
    """Annihilate ``lower[:, :m]`` against the pivot ``upper[:, :m]``.

    ``upper``/``lower`` are ``m × q`` views updated in place; ``w`` is the
    ``2m`` window signature.  The pivot block must be upper triangular with
    nonzero diagonal (guaranteed by the generator construction and
    preserved by this routine).  The elimination runs in the views'
    dtype; ``elim_dtype`` (when narrower) additionally rounds each pivot
    column through that dtype before the reflector is built — the
    ``"mixed"`` precision mode.  Raises
    :class:`~repro.errors.BreakdownError` when a pivot column has
    non-positive hyperbolic norm — for an SPD input this never happens.
    """
    m, q = upper.shape
    if lower.shape != (m, q):
        raise ShapeError(f"upper {upper.shape} and lower {lower.shape} "
                         "views must have equal shape")
    if q < m:
        raise ShapeError(f"working width {q} smaller than block size {m}")
    if panel is None or panel <= 0 or panel > m:
        panel = m
    round_pivot = (elim_dtype is not None
                   and np.dtype(elim_dtype) != upper.dtype)
    support = np.concatenate([np.zeros(1, dtype=np.intp),
                              np.arange(m, 2 * m, dtype=np.intp)])
    n2 = 2 * m
    wu_identity = bool(np.all(w[:m] == 1))
    wl_negidentity = bool(np.all(w[m:] == -1))
    for pstart in range(0, m, panel):
        pend = min(pstart + panel, m)
        with blas.category("blocking"):
            acc = make_accumulator(representation, w, dtype=upper.dtype)
        # Panel working set in Fortran order: every shrinking ``[:, j:]``
        # slice stays F-contiguous, so the per-reflector rank-1 updates
        # run as in-place BLAS ger instead of strided temporaries.
        pup = np.asfortranarray(upper[:, pstart:pend])
        plo = np.asfortranarray(lower[:, pstart:pend])
        for k in range(pstart, pend):
            j = k - pstart
            u = np.zeros(n2, dtype=upper.dtype)
            u[k] = pup[k, j]
            u[m:] = plo[:, j]
            if round_pivot:
                u = u.astype(elim_dtype).astype(upper.dtype)
            support[0] = k
            with blas.category("blocking"):
                refl, _sigma = reflector_annihilating(
                    u, w, k, support=support.copy(),
                    breakdown_tol=breakdown_tol)
            # Update the rest of the current panel sequentially (level 2).
            with blas.category("panel"):
                _apply_reflector_pair(refl, pup[:, j:], plo[:, j:], k,
                                      wu_identity=wu_identity,
                                      wl_negidentity=wl_negidentity)
            plo[:, j] = 0.0  # exact annihilation of the pivot column
            with blas.category("blocking"):
                acc.append(refl)
        upper[:, pstart:pend] = pup
        lower[:, pstart:pend] = plo
        u_block = acc.finish()
        if collect is not None:
            collect.append(u_block)
        # Apply the accumulated block transformation to the trailing
        # columns (rest of the pivot block, then the rest of the
        # generator) — the level-3-rich Phase 2.
        with blas.category("application"):
            if pend < q:
                u_block.apply_pair(upper[:, pend:], lower[:, pend:])
    # Each pivot column c is frozen once eliminated and so misses the pure
    # W sign-flip action of the (m−1−c) later reflectors (their rank-1
    # parts vanish on it).  Identity when Σ = I (SPD); required for
    # consistency when the upper signature carries −1 entries.
    wu = w[:m]
    if not np.all(wu == 1):
        cols = np.nonzero((m - 1 - np.arange(m)) % 2 == 1)[0]
        if cols.size:
            upper[:, cols] *= wu.astype(upper.dtype)[:, None]
    if pivot_sign_fixup:
        # Keep the pivot diagonal positive: flipping a whole generator row
        # leaves Gᵀ W G (and hence T) invariant.
        neg = np.diag(upper[:, :m]) < 0
        if np.any(neg):
            upper[neg] *= -1.0


def schur_spd_factor(t: SymmetricBlockToeplitz | Generator, *,
                     options: SchurOptions | None = None,
                     keep_reflectors: bool = False) -> SPDFactorization:
    """Cholesky factorization ``T = Rᵀ R`` of an SPD block Toeplitz matrix.

    Parameters
    ----------
    t : SymmetricBlockToeplitz or Generator
        The matrix (or its precomputed generator).
    options : SchurOptions
        Representation / blocking / in-place switches.
    keep_reflectors : bool
        Retain the per-step block reflectors (used by the error analysis
        and some tests; costs memory).

    Raises
    ------
    NotPositiveDefiniteError
        If a pivot with non-positive hyperbolic norm certifies that some
        leading principal minor of ``T`` is not positive.
    """
    opts = options or SchurOptions()
    wd = working_dtype(opts.precision)
    with obs.span("schur.generator"):
        if isinstance(t, Generator):
            g = t.copy()
        else:
            g = spd_generator(t, dtype=wd)
        # A precomputed generator (or a "mixed" plan) may still be in the
        # wrong storage dtype; round it once here, before elimination.
        if g.gen.dtype != wd:
            g = g.astype(wd)
    m, p = g.block_size, g.num_blocks
    n = m * p
    r = PackedUpper.zeros(n, dtype=wd)
    collected: list[BlockReflector] | None = [] if keep_reflectors else None
    with ExitStack() as stack:
        sp = stack.enter_context(obs.span(
            "schur.eliminate", representation=opts.representation,
            panel=opts.panel or m, in_place=opts.in_place,
            order=n, block_size=m, precision=opts.precision))
        # Measured per-category flops ride on the span (obs runs only).
        counter = (stack.enter_context(blas.counting())
                   if obs.enabled() else None)
        try:
            if opts.in_place:
                _factor_in_place(g, r, opts, collected)
            else:
                _factor_with_shift(g, r, opts, collected)
        except BreakdownError as exc:
            raise NotPositiveDefiniteError(
                f"matrix is not positive definite: {exc}") from exc
        if counter is not None:
            sp.set(counted_flops=counter.total,
                   counted_flops_by_phase=dict(counter.by_category))
        if obs.enabled():
            diag = np.abs(r.diagonal())
            health.record_pivot_spread(float(diag.min()),
                                       float(diag.max()))
    return SPDFactorization(r, m, p, opts,
                            reflectors=collected or [],
                            precision=opts.precision)


def _factor_in_place(g: Generator, r: PackedUpper, opts: SchurOptions,
                     collected: list[BlockReflector] | None) -> None:
    """Shift-free variant: apply ``U`` to offset views (Section 6.4)."""
    m, p = g.block_size, g.num_blocks
    n = m * p
    elim = (elimination_dtype(opts.precision)
            if opts.precision == "mixed" else None)
    top = g.gen[:m]
    bot = g.gen[m:]
    flush_tiny(g.gen)
    r.write_rows(0, top)
    for i in range(1, p):
        q = n - i * m
        upper = top[:, :q]
        lower = bot[:, i * m:]
        eliminate_block(upper, lower, g.w,
                        representation=opts.representation,
                        panel=opts.panel,
                        breakdown_tol=opts.breakdown_tol,
                        pivot_sign_fixup=opts.normalize_diagonal,
                        elim_dtype=elim,
                        collect=collected)
        # fp32: keep the decaying generator out of the subnormal range
        # (an sgemm over subnormals runs ~30× slower than a normal one).
        flush_tiny(upper)
        flush_tiny(lower)
        r.write_rows(i * m, upper)


def _factor_with_shift(g: Generator, r: PackedUpper, opts: SchurOptions,
                       collected: list[BlockReflector] | None) -> None:
    """Explicit Phase-3 shift variant (the distributed-memory shape)."""
    m, p = g.block_size, g.num_blocks
    n = m * p
    elim = (elimination_dtype(opts.precision)
            if opts.precision == "mixed" else None)
    top = np.array(g.gen[:m])
    bot = np.array(g.gen[m:])
    flush_tiny(top)
    flush_tiny(bot)
    r.write_rows(0, top)
    for i in range(1, p):
        q = n - i * m
        # Phase 3 (of the previous step): shift the upper row one block
        # right; the live width shrinks by one block each step.
        top[:, m:] = top[:, :-m]
        top[:, :m] = 0.0
        blas.charge(0, "shift")
        upper = top[:, i * m:]
        lower = bot[:, i * m:]
        assert upper.shape == (m, q) and lower.shape == (m, q)
        eliminate_block(upper, lower, g.w,
                        representation=opts.representation,
                        panel=opts.panel,
                        breakdown_tol=opts.breakdown_tol,
                        pivot_sign_fixup=opts.normalize_diagonal,
                        elim_dtype=elim,
                        collect=collected)
        flush_tiny(upper)
        flush_tiny(lower)
        r.write_rows(i * m, upper)
