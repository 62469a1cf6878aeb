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

Phases 1 and 2 of one panel are written once, as
:func:`build_transform` and :func:`apply_transform`: the serial loop
calls them per panel, and the distributed programs of
:mod:`repro.parallel` per pivot block or Version 3 chunk.  The loop is
written once, as a generator of the block rows of ``R``:
:func:`schur_spd_factor` stores each row in packed form and
:func:`repro.core.streaming.iter_r_block_rows` streams the same rows
without storing them.  The factorization satisfies ``T = Rᵀ R`` with
``R`` upper triangular (eq. 8); ``L = Rᵀ`` is the Cholesky factor.
"""

from __future__ import annotations

from contextlib import ExitStack
from dataclasses import dataclass
from typing import Iterator

import numpy as np

import repro.obs as obs
from repro.blas import primitives as blas
from repro.core.block_reflector import (
    REPRESENTATIONS,
    BlockReflector,
    make_accumulator,
)
from repro.core.generator import Generator, spd_generator
from repro.core.hyperbolic import pivot_scalars
from repro.core.packed import PackedUpper
from repro.core.precision import flush_tiny, validate_precision, working_dtype
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
    "build_transform",
    "apply_transform",
    "ColumnStep",
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
    breakdown_tol : float
        Relative threshold below which a pivot's hyperbolic norm is
        treated as zero.
    precision : str
        Working precision of the factorization: ``"fp64"`` (default)
        or ``"fp32"`` (single-precision generator, elimination and
        factor).
    """

    representation: str = "vy2"
    panel: int | None = None
    in_place: bool = True
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


class ColumnStep:
    """One column of the Schur elimination, with its invariants hoisted.

    Calling the step on ``m × c`` views ``upper``/``lower`` of the
    generator window eliminates their first column against the pivot
    ``upper[row, 0]``: it builds the hyperbolic reflector
    ``U = W + β x xᵀ`` that maps ``[upper[row, 0]; lower[:, 0]]`` onto
    the ``row`` axis (Section 3; its support is that row plus the lower
    half, Figure 1's pattern), applies ``U`` to all ``c`` columns, sets
    ``lower[:, 0]`` to exact zeros and returns ``(x, β)``.  ``x`` is the
    step's own length-``2m`` buffer, overwritten by the next call;
    :attr:`support` holds its nonzero rows.

    Both views must be Fortran-contiguous: the rank-1 update runs as an
    in-place BLAS ``?ger``, which on any other layout would update a
    copy.  The update keeps the evaluation order
    ``t = x_row·upper[row] + lowerᵀ x_low``, then the pivot-row axpy,
    then ``?ger`` on the lower rows (``docs/algorithm.md`` §4 says why).

    A step fixes the signature ``w`` (build a new one after changing
    it), the working dtype, ``breakdown_tol`` and — from the state at
    construction — whether flops and phase times are recorded.
    """

    def __init__(self, w: np.ndarray, dtype, *, breakdown_tol: float = 0.0):
        m = w.shape[0] // 2
        dtype = np.dtype(dtype)
        signs = [int(v) for v in w]
        self.m = m
        self.w = w
        self.dtype = dtype
        self.breakdown_tol = breakdown_tol
        self.wu_identity = all(v == 1 for v in signs[:m])
        self.wl_negidentity = all(v == -1 for v in signs[m:])
        #: ``W`` in the working dtype.
        self.wf = w.astype(dtype)
        self._signs = signs
        self._wfu = self.wf[:m, None]
        self._wfl = self.wf[m:, None]
        #: Signature on the support in float64; entry 0 is ``w[row]``.
        self._ws = np.array([1.0] + signs[m:])
        self.support = np.array([0] + list(range(m, 2 * m)), dtype=np.intp)
        self.x = np.zeros(2 * m, dtype=dtype)
        self._xlow = self.x[m:]
        self._row = 0
        self._u = np.empty(m + 1, dtype=dtype)
        self._narrow = dtype != np.float64
        self._ger = blas.GER_KERNELS[dtype]
        self.counting = blas.active_counter() is not None
        #: Reusable category scopes; callers charge their appends to
        #: ``blocking`` and their block applications to ``application``.
        self.blocking = blas.category("blocking")
        self.application = blas.category("application")
        self._panel = blas.category("panel")
        self._accumulators: dict = {}

    def accumulator(self, representation: str):
        """An empty accumulator for ``representation`` with this step's
        signature and dtype; its buffers are reused from call to call."""
        acc = self._accumulators.get(representation)
        if acc is None:
            acc = make_accumulator(representation, self.w, dtype=self.dtype)
            self._accumulators[representation] = acc
        else:
            acc.reset()
        return acc

    def __call__(self, upper: np.ndarray, lower: np.ndarray,
                 row: int) -> tuple[np.ndarray, float]:
        u = self._u
        u[0] = upper[row, 0]
        u[1:] = lower[:, 0]
        with self.blocking:
            xk, beta = self._reflector(row)
        with self._panel:
            xlow = self._xlow
            urow = upper[row]
            t = lower.T @ xlow
            t += xk * urow
            if not self.wu_identity:
                upper *= self._wfu
            if self.wl_negidentity:
                np.negative(lower, out=lower)
            else:
                lower *= self._wfl
            urow += (beta * xk) * t
            self._ger(beta, xlow, t, a=lower, overwrite_a=1)
            if self.counting:
                self._charge_update(*lower.shape)
        lower[:, 0] = 0.0  # exact annihilation of the pivot column
        return self.x, beta

    def _reflector(self, row: int) -> tuple:
        """Build ``x`` on the support from ``u``; return ``(x[row], β)``.

        :func:`~repro.core.hyperbolic.reflector_annihilating` restricted
        to the support: the hyperbolic norm in float64, then the shared
        checks, σ and ``xᵀWx`` of :func:`~repro.core.hyperbolic.
        pivot_scalars`.
        """
        u, ws, x = self._u, self._ws, self.x
        wjj = self._signs[row]
        ws[0] = wjj
        u64 = u.astype(np.float64) if self._narrow else u
        xs = ws * u64
        xs0 = xs[0]
        sigma, xwx = pivot_scalars(float(np.dot(xs, u64)),
                                   float(np.dot(u, u)), wjj,
                                   wjj * float(xs0), self.breakdown_tol)
        x[self._row] = 0.0
        self._row = self.support[0] = row
        if self._narrow:  # round σ, then add in the working precision
            typ = self.dtype.type
            xk = typ(xs0) + typ(sigma)
        else:
            xk = xs0 + sigma
        x[row] = xk
        self._xlow[:] = xs[1:]
        if self.counting:
            blas.charge(6 * self.m + 8, "reflector-setup")
        return xk, -2.0 / xwx

    def _charge_update(self, m: int, c: int) -> None:
        """The flops of one ``m × c`` panel update, as BLAS would count."""
        dt = self.dtype.name
        blas.charge(4 * c, "axpy")
        blas.charge(2 * m * c, "gemv", dt)
        blas.charge(2 * m * c, "ger", dt)
        blas.charge((m if self.wu_identity else 2 * m) * c, "scal")


def eliminate_block(upper: np.ndarray, lower: np.ndarray, w: np.ndarray, *,
                    representation: str = "vy2",
                    panel: int | None = None,
                    breakdown_tol: float = 1e-14) -> None:
    """Annihilate ``lower[:, :m]`` against the pivot ``upper[:, :m]``.

    ``upper``/``lower`` are ``m × q`` views updated in place; ``w`` is the
    ``2m`` window signature.  The pivot block must be upper triangular with
    nonzero diagonal (guaranteed by the generator construction and
    preserved by this routine).  The elimination runs in the views'
    dtype.

    Raises
    ------
    NotPositiveDefiniteError
        When the upper half of ``w`` is not ``+I``: the leading block of
        the matrix is then not positive definite.
    BreakdownError
        When a pivot column has non-positive hyperbolic norm — for an
        SPD input this never happens.
    """
    m, q = upper.shape
    if lower.shape != (m, q):
        raise ShapeError(f"upper {upper.shape} and lower {lower.shape} "
                         "views must have equal shape")
    if q < m:
        raise ShapeError(f"working width {q} smaller than block size {m}")
    step = _spd_step(w, upper.dtype, breakdown_tol)
    _eliminate(step, upper, lower, representation, panel)


def _spd_step(w: np.ndarray, dtype, breakdown_tol: float) -> ColumnStep:
    """The column step of an SPD elimination with window signature
    ``w``, whose upper half must be ``+I``."""
    step = ColumnStep(w, dtype, breakdown_tol=breakdown_tol)
    if not step.wu_identity:
        raise NotPositiveDefiniteError(
            "matrix is not positive definite: the generator's upper "
            "signature is not +I, so its leading block is not")
    return step


def build_transform(step: ColumnStep, upper: np.ndarray, lower: np.ndarray,
                    representation: str, row_offset: int = 0
                    ) -> tuple[BlockReflector, slice | np.ndarray]:
    """Phase 1 of one panel: build its transformation ``(U, negrows)``.

    ``upper``/``lower`` are ``m × k`` views of the panel's ``k`` pivot
    columns (a serial panel, a whole pivot block, or one Version 3
    chunk), whose pivot entries sit at rows ``row_offset + j``.  The
    ``k`` column steps of ``step`` (an SPD step: upper signature ``+I``)
    eliminate them in place and are accumulated into ``representation``.
    ``negrows`` indexes the pivot rows whose diagonal came out negative —
    a slice when all did, the usual case under the stable sign of σ,
    else an integer array; they are negated here and, by
    :func:`apply_transform`, in the later columns.  Negating a whole
    generator row leaves ``Gᵀ W G`` (hence ``T``) unchanged and keeps
    the diagonal of ``R`` positive.

    Raises
    ------
    BreakdownError
        When a pivot's hyperbolic norm falls below
        ``step.breakdown_tol``.
    """
    k = upper.shape[1]
    acc = step.accumulator(representation)
    # Fortran-ordered working copies: the column step updates in place.
    fu = np.asfortranarray(upper)
    fl = np.asfortranarray(lower)
    for j in range(k):
        x, beta = step(fu[:, j:], fl[:, j:], row_offset + j)
        with step.blocking:
            acc.push(x, beta, step.support)
    if fl is not lower:
        lower[:] = fl
    # Of ``upper`` the steps changed only the pivot rows; one pass copies
    # them back with their signs fixed.  The all-negative test runs in
    # Python: for a few pivots it is cheaper than a NumPy reduction.
    rows = slice(row_offset, row_offset + k)
    if max(fu.diagonal(-row_offset).tolist()) < 0:
        np.multiply(fu[rows], -1.0, out=upper[rows])
        return acc.finish(), rows
    upper[rows] = fu[rows]
    negrows = np.flatnonzero(fu.diagonal(-row_offset) < 0) + row_offset
    upper[negrows] *= -1.0
    return acc.finish(), negrows


def apply_transform(u: BlockReflector, negrows: slice | np.ndarray,
                    upper: np.ndarray, lower: np.ndarray) -> None:
    """Phase 2: apply a panel's ``(U, negrows)`` from
    :func:`build_transform` in place to the ``m × c`` views
    ``upper``/``lower`` of columns after the panel."""
    u.apply_pair(upper, lower)
    if isinstance(negrows, slice):
        # ``np.multiply`` on the view: ``upper[negrows] *= -1.0`` would
        # also copy the rows back onto themselves, and NumPy 2.4's
        # ``np.negative(…, out=…)`` writes the wrong elements of a
        # one-row view whose column step is 64 bytes (float64) or 16
        # bytes (float32), as a distributed PE's rows can be.
        neg = upper[negrows]
        np.multiply(neg, -1.0, out=neg)
    else:
        upper[negrows] *= -1.0


def _eliminate(step: ColumnStep, upper: np.ndarray, lower: np.ndarray,
               representation: str, panel: int | None) -> None:
    """:func:`eliminate_block` with the column step built by the caller
    (the factorization loop builds one for all its block steps): each
    panel of ``panel`` pivot columns is built, then applied to the
    columns after it — the level-3-rich Phase 2."""
    m, q = upper.shape
    if panel is None or panel <= 0 or panel > m:
        panel = m
    for pstart in range(0, m, panel):
        pend = min(pstart + panel, m)
        u, negrows = build_transform(step, upper[:, pstart:pend],
                                     lower[:, pstart:pend], representation,
                                     pstart)
        if pend < q:
            with step.application:
                apply_transform(u, negrows, upper[:, pend:],
                                lower[:, pend:])


def schur_spd_factor(t: SymmetricBlockToeplitz | Generator, *,
                     options: SchurOptions | None = None
                     ) -> SPDFactorization:
    """Cholesky factorization ``T = Rᵀ R`` of an SPD block Toeplitz matrix.

    Parameters
    ----------
    t : SymmetricBlockToeplitz or Generator
        The matrix (or its precomputed generator).
    options : SchurOptions
        Representation / blocking / in-place switches.

    Raises
    ------
    NotPositiveDefiniteError
        If a pivot with non-positive hyperbolic norm certifies that some
        leading principal minor of ``T`` is not positive, or if a
        generator ``t`` has an upper signature other than ``+I`` (its
        leading block is then not positive definite).
    """
    opts = options or SchurOptions()
    g = _working_generator(t, opts)
    m, p = g.block_size, g.num_blocks
    n = m * p
    r = PackedUpper.zeros(n, dtype=g.gen.dtype)
    with ExitStack() as stack:
        sp = stack.enter_context(obs.span(
            "schur.eliminate", representation=opts.representation,
            panel=opts.panel or m, in_place=opts.in_place,
            order=n, block_size=m, precision=opts.precision))
        # Measured per-category flops ride on the span (obs runs only).
        counter = (stack.enter_context(blas.counting())
                   if obs.enabled() else None)
        for i, upper in _block_rows(g, opts):
            r.write_rows(i * m, upper)
        if counter is not None:
            sp.set(counted_flops=counter.total,
                   counted_flops_by_phase=dict(counter.by_category))
        if obs.enabled():
            diag = np.abs(r.diagonal())
            health.record_pivot_spread(float(diag.min()),
                                       float(diag.max()))
    return SPDFactorization(r, m, p, opts, precision=opts.precision)


def _working_generator(t: SymmetricBlockToeplitz | Generator,
                       opts: SchurOptions) -> Generator:
    """The displacement generator of ``t`` (a private copy when ``t`` is
    one) in the working dtype of ``opts.precision``."""
    wd = working_dtype(opts.precision)
    with obs.span("schur.generator"):
        if isinstance(t, Generator):
            g = t.copy()
        else:
            g = spd_generator(t, dtype=wd)
        # A precomputed generator may still be in the wrong storage
        # dtype; round it once here, before elimination.
        if g.gen.dtype != wd:
            g = g.astype(wd)
    return g


def _block_rows(g: Generator, opts: SchurOptions
                ) -> Iterator[tuple[int, np.ndarray]]:
    """Eliminate ``g`` in place, yielding ``(i, R[i·m:(i+1)·m, i·m:])``.

    The one Schur loop: :func:`schur_spd_factor` stores each yield and
    :func:`repro.core.streaming.iter_r_block_rows` streams it.  Each
    ``m × (n − i·m)`` row is a live view into ``g``, valid until the
    next step; rounding residue below its diagonal is not part of
    ``R``.  Phase 3 is the shift-free in-place update of Section 6.4
    (``U`` applied to offset views) or, with ``in_place=False``, the
    explicit shift a distributed-memory implementation must do.

    Raises
    ------
    NotPositiveDefiniteError
        When a pivot's hyperbolic norm certifies a non-positive leading
        principal minor, or before the first row when the upper
        signature of ``g`` is not ``+I``.
    """
    m, p = g.block_size, g.num_blocks
    step = _spd_step(g.w, g.gen.dtype, opts.breakdown_tol)
    n = m * p
    top, bot = g.gen[:m], g.gen[m:]
    # The in-place variant flushes against the whole generator's scale,
    # the shift variant against each row's own.
    if opts.in_place:
        flush_tiny(g.gen)
    else:
        flush_tiny(top)
        flush_tiny(bot)
    yield 0, top
    for i in range(1, p):
        if opts.in_place:
            upper = top[:, :n - i * m]
        else:
            # Phase 3 (of the previous step): shift the upper row one
            # block right; the live width shrinks by one block each step.
            top[:, m:] = top[:, :-m]
            top[:, :m] = 0.0
            blas.charge(0, "shift")
            upper = top[:, i * m:]
        lower = bot[:, i * m:]
        try:
            _eliminate(step, upper, lower, opts.representation, opts.panel)
        except BreakdownError as exc:
            raise NotPositiveDefiniteError(
                f"matrix is not positive definite: {exc}") from exc
        # fp32: keep the decaying generator out of the subnormal range
        # (an sgemm over subnormals runs ~30× slower than a normal one).
        flush_tiny(upper)
        flush_tiny(lower)
        yield i, upper
