"""The paper's closed-form operation-count models (Section 6).

Two families of formulas:

* **blocking flops** — cost of *producing* a block representation of the
  ``k`` reflectors of one elimination step (eqs. 25–28);
* **application flops** — cost of *applying* the block transformation to
  the remaining ``2m × mp`` generator (eqs. 29–32).

plus the Section 6.5 total-cost rule of thumb ``≈ 4 m_s n²`` governing the
structural-vs-algorithmic block size trade-off, and a primitive-level
decomposition of one elimination step used by the machine performance
models (Figure 10 and the T3D experiments): its build, its application
and the words its transformation takes on the wire, which the serial
models and the distributed programs of :mod:`repro.parallel` charge
alike.

The polynomial coefficients below are transcribed from the paper; the
benchmark ``bench_flop_models`` checks them against instrumented counts
from :mod:`repro.blas.primitives`.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil

from repro.errors import ShapeError

__all__ = [
    "blocking_flops",
    "application_flops",
    "step_flops",
    "factorization_flops",
    "nominal_total_flops",
    "PRECISION_FLOP_WEIGHT",
    "precision_weight",
    "PrimitiveCall",
    "blocking_calls",
    "application_calls",
    "transform_words",
    "primitive_calls_for_step",
    "primitive_calls_for_factorization",
]

#: Relative time-per-flop of each precision mode versus fp64.  A flop is
#: a flop regardless of width — what changes is the memory traffic per
#: operand, so fp32 streams twice the elements per byte and the Hockney
#: flop-time term halves.
PRECISION_FLOP_WEIGHT = {"fp64": 1.0, "fp32": 0.5}


def precision_weight(precision: str) -> float:
    """Time weight of ``precision`` relative to fp64 (see above)."""
    try:
        return PRECISION_FLOP_WEIGHT[precision]
    except KeyError:
        raise ShapeError(
            f"unknown precision {precision!r}; expected one of "
            f"{tuple(PRECISION_FLOP_WEIGHT)}") from None


def _check_mk(m: int, k: int | None) -> int:
    if m <= 0:
        raise ShapeError(f"block size must be positive, got {m}")
    k = m if k is None else int(k)
    if not (1 <= k <= m):
        raise ShapeError(f"panel width k={k} must be in [1, {m}]")
    return k


def blocking_flops(representation: str, m: int, k: int | None = None) -> float:
    """Flops to build the block representation of ``k`` reflectors.

    ``representation`` ∈ {"dense", "vy1", "vy2", "yty"}; ``k`` defaults to
    the full block size ``m``.  Eqs. (25)–(28) of the paper.
    """
    k = _check_mk(m, k)
    if representation in ("dense", "u"):
        # eq. (25)
        return (4 * m * m * k + 2 * m * k * k - 3 * m * m
                + 4 * m * k + 0.5 * k * k + m + 10.5 * k)
    if representation == "vy1":
        # eq. (26)
        return (2 * m * k * k + k ** 3 / 3.0 + 3.5 * m * k
                + 0.25 * k * k - m + 9 * k)
    if representation == "vy2":
        # eq. (27)
        return (2 * m * k * k + 2.5 * m * k + 0.5 * k * k
                - 0.5 * m + 8.5 * k)
    if representation == "yty":
        # eq. (28)
        return (m * k * k + k ** 3 / 3.0 + 3.5 * m * k
                + 0.25 * k * k + 9 * k - m - 1)
    if representation == "unblocked":
        # No blocking work beyond forming the reflector vectors
        # (the (3m+8)-flop setup per reflector, Section 6.2).
        return (3 * m + 8) * k
    raise ShapeError(f"unknown representation {representation!r}")


def application_flops(representation: str, m: int, p: int,
                      k: int | None = None) -> float:
    """Flops to apply the block transformation to a ``2m × mp`` generator.

    ``p`` is the width of the *remainder* of the generator in blocks
    (``p = r − j − 1`` at step ``j``).  Eqs. (29)–(32).
    """
    k = _check_mk(m, k)
    if p < 0:
        raise ShapeError(f"generator width p must be ≥ 0, got {p}")
    mp = m * p
    if representation in ("dense", "u"):
        # eq. (29)
        return 2 * m ** 3 * p + 4 * m * m * p * k + mp * k * k + mp * k
    if representation == "vy1":
        # eq. (30)
        base = 4 * m * m * p * k + mp * k * k + 3 * mp * k
        return base + (m * m * p if k % 2 == 1 else 0)
    if representation == "vy2":
        # eq. (31)
        base = 4 * m * m * p * k + mp * k * k + 2 * mp * k
        return base + (m * m * p if k % 2 == 1 else 0)
    if representation == "yty":
        # eq. (32)
        return 4 * m * m * p * k + mp * k * k + m * m * p + 4 * mp * k
    if representation == "unblocked":
        # k sequential reflectors, each a gemv + rank-1 over 2m × mp.
        return k * (4 * m * mp + 2 * mp)
    raise ShapeError(f"unknown representation {representation!r}")


def step_flops(representation: str, m: int, p_active: int,
               k: int | None = None) -> float:
    """Blocking + application cost of one block elimination step.

    With two-level blocking (``k < m``) the step runs ``⌈m/k⌉`` panels,
    each built over the ``2m`` window and applied to the remaining width.
    """
    kk = _check_mk(m, k)
    panels = ceil(m / kk)
    total = 0.0
    for j in range(panels):
        kj = min(kk, m - j * kk)
        total += blocking_flops(representation, m, kj)
        total += application_flops(representation, m, p_active, kj)
    return total


def factorization_flops(n: int, m: int, *, representation: str = "vy2",
                        k: int | None = None) -> float:
    """Model total for factoring an ``n × n`` matrix with block size ``m``.

    Sums the per-step model over the ``p − 1`` elimination steps with the
    generator remainder shrinking by one block per step.
    """
    if n % m != 0:
        raise ShapeError(f"n={n} not a multiple of m={m}")
    p = n // m
    total = 0.0
    for j in range(1, p):
        total += step_flops(representation, m, p - j, k)
    return total


def nominal_total_flops(n: int, m: int) -> float:
    """The paper's Section 6.5 rule of thumb: ``≈ 4 m n²``.

    Used for the block-size trade-off discussion (the cost of forgoing
    structure grows linearly in the algorithmic block size ``m_s``).
    """
    return 4.0 * m * n * n


# ----------------------------------------------------------------------
# Primitive-level decomposition (feeds the machine performance models)
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class PrimitiveCall:
    """One BLAS primitive invocation with its operand shape.

    ``name`` ∈ {dot, axpy, scal, gemv, ger, gemm, trsm}; ``shape`` is the
    defining dimension tuple — ``(n,)`` for level 1, ``(m, n)`` for level
    2, ``(m, n, k)`` for ``C(m×n) += A(m×k) B(k×n)``.
    """

    name: str
    shape: tuple[int, ...]

    @property
    def flops(self) -> float:
        s = self.shape
        if self.name == "dot":
            return 2 * s[0] - 1
        if self.name == "axpy":
            return 2 * s[0]
        if self.name == "scal":
            return s[0]
        if self.name in ("gemv", "ger"):
            return 2 * s[0] * s[1]
        if self.name == "gemm":
            return 2 * s[0] * s[1] * s[2]
        if self.name == "trsm":
            return s[0] * s[0] * s[1]
        raise ShapeError(f"unknown primitive {self.name!r}")


def blocking_calls(m: int, *, representation: str = "vy2",
                   cols: int | None = None,
                   start_index: int = 0) -> list[PrimitiveCall]:
    """Primitive mix of Phase 1: building the transformation of ``cols``
    pivot columns (:func:`repro.core.schur_spd.build_transform`).

    Per column a dot over the ``(m+1)``-entry reflector support, the
    panel's gemv/axpy/ger on the remaining panel columns, and — from the
    second reflector on — the representation's accumulation recurrence,
    whose size grows with the number ``idx`` of reflectors already
    accumulated.  ``start_index`` is that number at the first column
    (the Version 3 programs charge chunk ``c`` from ``c · cols``).
    """
    if cols is None:
        cols = m
    if not (1 <= cols <= m) or not (0 <= start_index <= m - cols):
        raise ShapeError(
            f"invalid cols={cols}, start_index={start_index} for m={m}")
    n2 = 2 * m
    calls: list[PrimitiveCall] = []
    for local in range(cols):
        idx = start_index + local
        pw = cols - local
        calls.append(PrimitiveCall("dot", (m + 1,)))
        calls.append(PrimitiveCall("gemv", (m, pw)))   # xᵀ·lower
        calls.append(PrimitiveCall("axpy", (pw,)))     # pivot row
        calls.append(PrimitiveCall("ger", (m, pw)))    # lower update
        if idx > 0:
            if representation == "vy1":
                calls.append(PrimitiveCall("gemv", (n2, idx)))
                calls.append(PrimitiveCall("gemv", (n2, idx)))
                calls.append(PrimitiveCall("scal", (n2 * idx,)))
            elif representation == "vy2":
                calls.append(PrimitiveCall("gemv", (n2, idx)))
                calls.append(PrimitiveCall("ger", (n2, idx)))
                calls.append(PrimitiveCall("scal", (n2 * idx,)))
            elif representation == "yty":
                calls.append(PrimitiveCall("gemv", (n2, idx)))
                calls.append(PrimitiveCall("gemv", (idx, idx)))
                calls.append(PrimitiveCall("scal", (n2 * idx,)))
            elif representation in ("dense", "u"):
                calls.append(PrimitiveCall("gemv", (n2, n2)))
                calls.append(PrimitiveCall("ger", (n2, n2)))
            elif representation != "unblocked":
                raise ShapeError(
                    f"unknown representation {representation!r}")
    return calls


def application_calls(m: int, width: int, *,
                      representation: str = "vy2",
                      k: int | None = None) -> list[PrimitiveCall]:
    """Primitive mix of Phase 2: applying a ``k``-reflector block
    transformation to ``width`` scalar columns of the ``2m``-row
    generator (:func:`repro.core.schur_spd.apply_transform`)."""
    if width <= 0:
        return []
    kk = m if k is None else k
    if not (1 <= kk <= m):
        raise ShapeError(f"k={kk} must be in [1, {m}]")
    n2 = 2 * m
    if representation in ("vy1", "vy2"):
        return [PrimitiveCall("gemm", (kk, width, n2)),    # YᵀA
                PrimitiveCall("gemm", (n2, width, kk))]    # V·
    if representation == "yty":
        return [PrimitiveCall("gemm", (kk, width, n2)),    # YᵀWA
                PrimitiveCall("gemm", (kk, width, kk)),    # T·
                PrimitiveCall("gemm", (n2, width, kk))]    # Y·
    if representation in ("dense", "u"):
        return [PrimitiveCall("gemm", (n2, width, n2))]
    if representation == "unblocked":
        calls = []
        for _ in range(kk):
            calls.append(PrimitiveCall("gemv", (m, width)))
            calls.append(PrimitiveCall("ger", (m, width)))
            calls.append(PrimitiveCall("axpy", (width,)))
        return calls
    raise ShapeError(f"unknown representation {representation!r}")


def transform_words(representation: str, m: int,
                    k: int | None = None) -> int:
    """8-byte words needed to communicate the block transformation.

    Exploits the Figure 3/4 sparsity: reflector columns carry one pivot
    entry plus the ``m`` lower entries; the ``z``/``T`` factors are
    triangular.  The ``YTYᵀ`` form is roughly half the VY volume — the
    property Section 6.3 cites for distributed machines.
    """
    kk = m if k is None else k
    if not (1 <= kk <= m):
        raise ShapeError(f"k={kk} must be in [1, {m}]")
    x_words = kk * (m + 1)                 # reflector columns
    tri = kk * (kk + 1) // 2
    if representation in ("vy1", "vy2"):
        # one factor with x-sparsity, one with growing upper support
        return x_words + (tri + kk * m)
    if representation == "yty":
        return x_words + tri
    if representation in ("dense", "u"):
        return (2 * m) * (2 * m)
    if representation == "unblocked":
        return x_words
    raise ShapeError(f"unknown representation {representation!r}")


def primitive_calls_for_step(m: int, width: int, *,
                             representation: str = "vy2",
                             k: int | None = None) -> list[PrimitiveCall]:
    """Primitive mix of one elimination step on a ``2m × width`` pair.

    ``width`` is in scalar columns (``p_active · m``).  The step is the
    serial loop's: per panel of ``k`` columns, its build
    (:func:`blocking_calls`) and its application to the columns after
    the panel (:func:`application_calls`).  The machine models price
    each call by shape, which is exactly how the shape-sensitivity of
    Figure 10 enters.
    """
    kk = _check_mk(m, k)
    calls: list[PrimitiveCall] = []
    for pstart in range(0, m, kk):
        pend = min(pstart + kk, m)
        calls += blocking_calls(m, representation=representation,
                                cols=pend - pstart)
        calls += application_calls(m, width - pend,
                                   representation=representation,
                                   k=pend - pstart)
    return calls


def primitive_calls_for_factorization(n: int, m: int, *,
                                      representation: str = "vy2",
                                      k: int | None = None
                                      ) -> list[PrimitiveCall]:
    """Primitive mix of the full factorization (all elimination steps)."""
    if n % m != 0:
        raise ShapeError(f"n={n} not a multiple of m={m}")
    p = n // m
    calls: list[PrimitiveCall] = [
        PrimitiveCall("trsm", (m, n)),  # generator setup L₁⁻¹·strip
    ]
    for j in range(1, p):
        calls.extend(primitive_calls_for_step(
            m, (p - j) * m, representation=representation, k=k))
    return calls
