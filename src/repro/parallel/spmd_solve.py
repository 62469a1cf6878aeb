"""Distributed triangular solves with the column-distributed factor.

After the distributed factorization, PE ``r`` owns the block columns
``R[:, j]`` of its local columns ``j`` (Versions 1/2 layout); ``R`` itself
sits in packed storage (:class:`~repro.core.packed.PackedUpper`), and
each PE reads only its own columns of it.  Solving ``T x = RᵀR x = b``
proceeds in two block-substitution sweeps:

* **forward** (``Rᵀ y = b``): block column ``I`` is wholly owned, so its
  owner applies the accumulated couplings, solves the ``m × m``
  triangular system, and broadcasts ``y_I``; every PE folds the new
  ``y_I`` into the pending sums of its local later columns with one
  GEMM over its strip of block row ``I``.
* **backward** (``R x = y``): the coupling ``R[i, j] x_j`` lives with the
  owner of column ``j``, so after each ``x_J`` arrives its owner folds
  it into the pending row sums with one GEMM over the column strip above
  ``R[J, J]``, and the row sums are *reduced* to the diagonal owner (one
  sum-reduction + one broadcast per block row).

One small collective pair per block row — the classic limited-
parallelism distributed triangular solve; its simulated cost is exactly
why the paper (and practice) amortize one factorization over many
right-hand sides.  ``b`` is an ``n × k`` panel (a vector is a panel of
one column): each collective moves ``m·k`` words and every per-PE update
is a level-3 product, which is the distributed face of the batched-RHS
story.  The same program runs on the simulated machine
(:func:`repro.parallel.driver.simulate_triangular_solve`) and on real
worker processes (:func:`repro.parallel.mp_backend.mp_triangular_solve`).
"""

from __future__ import annotations

import bisect

import numpy as np

from repro.machine.ops import Barrier, Broadcast, Compute, Reduce
from repro.parallel.distributions import Layout
from repro.utils.lintools import solve_upper_triangular

__all__ = ["triangular_solve_program"]


def _charge_flops(node_model, flops: int, length: int, category: str):
    if node_model is None:
        return Compute(0.0, category)
    return Compute(node_model.level2.time(flops, max(length, 1)), category)


def triangular_solve_program(ctx, *, layout: Layout, m: int,
                             p: int, packed, b: np.ndarray, x: np.ndarray,
                             node_model=None):
    """SPMD program solving ``RᵀR x = b`` from distributed ``R`` columns.

    ``packed`` holds ``R`` (each PE reads only its own block columns);
    ``b`` is the replicated ``n × k`` right-hand-side panel (it is only
    ``O(n·k)``), and the owner of each block row writes its rows of the
    solution into the ``n × k`` array ``x``.  The diagonal solves are
    charged as ``solve``, the per-PE updates as ``application``.
    """
    rank = ctx.rank
    my_cols = layout.blocks_of(rank, p)
    # Columns of R this PE reads in the forward sweep: those of
    # my_cols[q:] are my_idx[q * m:].
    my_idx = (np.asarray(my_cols, dtype=np.intp)[:, None] * m
              + np.arange(m)).ravel()
    k = b.shape[1]
    words = m * k

    def rows(i):
        return slice(i * m, (i + 1) * m)

    def diag(i):
        return packed.block_row(i * m, m, np.arange(i * m, (i + 1) * m))

    # ---------------- forward sweep: Rᵀ y = b ----------------------------
    acc = np.zeros((p, m, k))
    y = np.zeros((m * p, k))
    for i in range(p):
        owner = layout.owner(i)
        payload = None
        if rank == owner:
            payload = solve_upper_triangular(
                diag(i), b[rows(i)] - acc[i], trans=True)
            yield _charge_flops(node_model, m * m * k, m, "solve")
        y[rows(i)] = yield Broadcast(root=owner, payload=payload,
                                     words=words, category="broadcast")
        q = bisect.bisect_right(my_cols, i)
        after = my_cols[q:]
        if after:
            upd = packed.block_row(i * m, m, my_idx[q * m:]).T @ y[rows(i)]
            acc[after] += upd.reshape(len(after), m, k)
            yield _charge_flops(node_model, 2 * m * m * k * len(after), m,
                                "application")
    yield Barrier()

    # ---------------- backward sweep: R x = y ----------------------------
    # pending[i] (local) accumulates Σ_{j>i, j local} R[i, j] x_j; the
    # full row sum is reduced to owner(i) just before x_i is solved.
    pending = np.zeros((p, m, k))
    mine = set(my_cols)
    for i in range(p - 1, -1, -1):
        owner = layout.owner(i)
        total = yield Reduce(root=owner, payload=pending[i], words=words)
        payload = None
        if rank == owner:
            payload = solve_upper_triangular(diag(i), y[rows(i)] - total)
            x[rows(i)] = payload
            yield _charge_flops(node_model, m * m * k, m, "solve")
        xi = yield Broadcast(root=owner, payload=payload, words=words,
                             category="broadcast")
        if i in mine and i > 0:
            upd = packed.block_column(i * m, m) @ xi
            pending[:i] += upd.reshape(i, m, k)
            yield _charge_flops(node_model, 2 * m * m * k * i, m,
                                "application")
    yield Barrier()
