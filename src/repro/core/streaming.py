"""Streaming Schur factorization: O(m·n) memory consumers.

The block Schur recursion produces ``R`` one block row at a time from a
``2m × n`` generator.  Consumers that only need a *forward* pass over
the rows — whitening ``y = R⁻ᵀ b``, the log-determinant, Gaussian
log-likelihoods of stationary (block) time series — therefore never
need the ``O(n²)`` triangular factor at all.  This module exposes the
row stream and those consumers.  The stream is the stored factor's own
elimination loop, so it honours every :class:`SchurOptions` field,
``precision`` and ``in_place`` included.

This is the natural large-``n`` mode of the algorithm (the full factor
of a 10⁵-point Toeplitz matrix would need 40 GB; the stream needs a few
megabytes).
"""

from __future__ import annotations

import math
from typing import Iterator

import numpy as np

from repro.core.generator import Generator
from repro.core.schur_spd import (
    SchurOptions,
    _block_rows,
    _working_generator,
)
from repro.errors import ShapeError
from repro.toeplitz.block_toeplitz import SymmetricBlockToeplitz
from repro.utils.lintools import solve_upper_triangular

__all__ = [
    "iter_r_block_rows",
    "streaming_whiten",
    "streaming_logdet",
    "gaussian_loglikelihood",
]


def iter_r_block_rows(t: SymmetricBlockToeplitz | Generator, *,
                      options: SchurOptions | None = None
                      ) -> Iterator[tuple[int, np.ndarray]]:
    """Yield ``(i, R[i·m:(i+1)·m, i·m:])`` for ``i = 0 … p−1``.

    The rows come from the factor's own loop (``_block_rows`` in
    :mod:`repro.core.schur_spd`), so every option of ``options``
    applies — ``precision`` (working dtype, fp32 subnormal flush),
    ``in_place``, the representation and panel — and each row's upper
    triangle equals
    :func:`~repro.core.schur_spd.schur_spd_factor`'s row bit for bit.
    The yielded array is a *live view* into the working generator —
    consume (or copy) it before advancing the iterator; below its
    diagonal it may hold rounding residue.  Total extra memory is the
    ``2m × n`` generator.
    """
    opts = options or SchurOptions()
    yield from _block_rows(_working_generator(t, opts), opts)


def streaming_whiten(t: SymmetricBlockToeplitz, b: np.ndarray, *,
                     options: SchurOptions | None = None,
                     return_logdet: bool = False):
    """Solve ``Rᵀ y = b`` (whitening) without storing ``R``.

    Forward block substitution folded into the row stream: when block
    row ``i`` arrives, ``y_i`` is solved from the diagonal block and the
    row's trailing blocks push their contribution onto the running
    right-hand side.  ``O(m n)`` memory, same flops as a stored-factor
    forward solve.

    Returns ``y`` (and ``log det T`` when ``return_logdet``).
    """
    n = t.order
    m = t.block_size
    b = np.asarray(b, dtype=np.float64)
    single = b.ndim == 1
    if single:
        b = b[:, None]
    if b.shape[0] != n:
        raise ShapeError(f"b has {b.shape[0]} rows, expected {n}")
    rhs = np.array(b)          # running (b − Σ R_{J,I}ᵀ y_J)
    y = np.empty_like(b)
    logdet = 0.0
    for i, row in iter_r_block_rows(t, options=options):
        lo = i * m
        rii = row[:, :m]
        yi = solve_upper_triangular(rii, rhs[lo:lo + m], trans=True)
        y[lo:lo + m] = yi
        if row.shape[1] > m:
            rhs[lo + m:] -= row[:, m:].T @ yi
        logdet += 2.0 * float(np.sum(np.log(np.abs(np.diag(rii)))))
    y = y[:, 0] if single else y
    if return_logdet:
        return y, logdet
    return y


def streaming_logdet(t: SymmetricBlockToeplitz, *,
                     options: SchurOptions | None = None) -> float:
    """``log det T`` in ``O(m n)`` memory."""
    m = t.block_size
    logdet = 0.0
    for _i, row in iter_r_block_rows(t, options=options):
        logdet += 2.0 * float(np.sum(np.log(np.abs(np.diag(row[:, :m])))))
    return logdet


def gaussian_loglikelihood(t: SymmetricBlockToeplitz,
                           x: np.ndarray, *,
                           options: SchurOptions | None = None) -> float:
    """Log-density of ``x ~ N(0, T)`` for block Toeplitz ``T``.

    ``−½ (xᵀT⁻¹x + log det T + n log 2π)`` with ``xᵀT⁻¹x = ‖R⁻ᵀx‖²``
    computed by the streaming whitener — the standard exact-likelihood
    evaluation for stationary (vector) Gaussian processes, in ``O(m n²)``
    time and ``O(m n)`` memory.
    """
    x = np.asarray(x, dtype=np.float64)
    n = t.order
    if x.shape != (n,):
        raise ShapeError(f"x must have shape ({n},), got {x.shape}")
    y, logdet = streaming_whiten(t, x, options=options,
                                 return_logdet=True)
    quad = float(y @ y)
    return -0.5 * (quad + logdet + n * math.log(2.0 * math.pi))
