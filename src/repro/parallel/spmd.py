"""SPMD rank program for the distributed block Schur algorithm.

One bulk program, :func:`bulk_program`, runs all three of the paper's
distributions (Section 7.1, Figure 5).  Each block column is cut into
``spread`` column chunks, placed by
:class:`~repro.parallel.distributions.Layout`: one chunk per block for
Versions 1/2 (block-cyclic by groups of ``b``), ``s`` chunks on
adjacent PEs for Version 3.  It follows the
bulk-synchronous compute/communicate paradigm with a barrier per
elimination step, exactly as the paper assumes.

Per step ``i``:

1. *shift* — every PE forwards the upper halves of its live chunks
   ``(j, c) → (j+1, c)``; all crossings go to the PE ``spread`` places
   to the right (one ``shmem_put`` of ``O(k_active · m · m/s)`` words);
2. *build* — for each chunk ``c`` of block ``i`` in turn, its owner
   eliminates the lower pivot chunk against the upper one, producing the
   block hyperbolic Householder transformation of those columns;
3. *broadcast* — the transformation (in the chosen representation, with
   its sparsity-aware volume) goes to all PEs;
4. *apply* — every PE applies it to its later chunks (level-3);
5. *barrier*.

With one chunk per block (Versions 1/2), steps 2–4 run once per block
step; Version 3 runs them ``s`` times, trading extra communication for
intra-block parallelism.

The numerics are real: each PE copies its columns out of the generator
it is handed, transforms them with the serial factor's own block step
(:func:`~repro.core.schur_spd.build_transform` and
:func:`~repro.core.schur_spd.apply_transform`), and writes its blocks of
``R`` straight into the :class:`~repro.core.packed.PackedUpper` it is
handed, which matches the serial factorization bit for bit (Version 3
with spread ``s`` matches the serial factor with ``panel = m / s``).
Compute *time* is charged from the node performance model via the
step's primitive-call decomposition in :mod:`repro.core.flops`.

The program is written once and runs on two executors: the simulated
T3D (:class:`~repro.machine.Machine`, through
:mod:`repro.parallel.driver`) and real worker processes
(:mod:`repro.parallel.mp_backend`), which interpret the same ops over
shared memory.  A zero-second ``Compute`` after each ``R`` write
costs the simulator nothing and lets the real executor time
the write as its own phase (:data:`GATHER`).
"""

from __future__ import annotations

import bisect

import numpy as np

from repro.core import flops
from repro.core.generator import spd_generator
from repro.core.schur_spd import (
    ColumnStep,
    SchurOptions,
    apply_transform,
    build_transform,
)
from repro.errors import DistributionError, ShapeError
from repro.machine.ops import Barrier, Broadcast, Compute, Put, Recv
from repro.parallel.distributions import Layout

__all__ = ["bulk_program", "column_index", "resolve_run"]


#: Ends each write of ``R``: free on the simulator, timed as the
#: ``gather`` phase on real processes.
GATHER = Compute(0.0, "gather")


def resolve_run(t, nproc: int | None = None, *, b: float = 1, plan=None,
                representation: str | None = None,
                schedule: str | None = None):
    """Resolve and check one distributed factorization of ``t``.

    The one front end of both executors
    (:func:`~repro.parallel.driver.simulate_factorization` and
    :func:`~repro.parallel.mp_backend.mp_factorization`): ``plan``
    supplies ``nproc``, ``b``, ``representation`` and ``schedule``
    unless they are given; ``b`` selects the Version 1/2/3
    distribution.  Returns ``(layout, generator, program,
    representation, schedule)``.

    Raises
    ------
    DistributionError
        Without ``nproc``, for an unknown schedule or a ``b`` that names
        no distribution, for lookahead off the Version 1 layout or on
        one PE, and for Version 3 unless ``spread`` divides ``m``.
    ShapeError
        For fewer than 2 block columns.
    NotPositiveDefiniteError
        When the leading block is not positive definite.
    """
    from repro.engine.plan import SCHEDULES

    if plan is not None:
        if nproc is None:
            nproc = plan.nproc
        if plan.distribution_b is not None:
            b = plan.distribution_b
        representation = representation or plan.representation
        schedule = schedule or getattr(plan, "schedule", "bulk")
    representation = representation or "vy2"
    schedule = schedule or "bulk"
    if schedule not in SCHEDULES:
        raise DistributionError(
            f"unknown schedule {schedule!r}; expected one of {SCHEDULES}")
    if nproc is None:
        raise DistributionError(
            "nproc is required (directly or through a SolverPlan)")
    layout = Layout(nproc, b)
    if schedule == "lookahead":
        from repro.parallel.lookahead import \
            block_cyclic_lookahead_program as program
        if layout.version != 1:
            raise DistributionError(
                "lookahead is implemented for the Version 1 layout")
        if nproc < 2:
            raise DistributionError("lookahead needs at least 2 PEs")
    else:
        program = bulk_program
        layout.chunk_width(t.block_size)   # validates m % spread == 0
    if t.num_blocks < 2:
        raise ShapeError("need at least 2 block columns to factor")
    return layout, spd_generator(t), program, representation, schedule


def _charge(model, calls, category):
    if model is None or not calls:
        return Compute(0.0, category)
    return Compute(model.time_many(calls), category)


def column_index(starts, width: int) -> np.ndarray:
    """The columns of the ``width``-wide slices starting at ``starts``,
    side by side — a PE's block columns (or chunks) of the generator and
    of ``R``."""
    return (np.asarray(starts, dtype=np.intp)[:, None]
            + np.arange(width)).ravel()


def _shift(ctx, step, layout, uppers, pos, live):
    """Move the upper halves of the ``live`` chunks one block column on.

    ``uppers`` is the ``(m, nloc, width)`` view of this PE's upper rows;
    ``pos`` maps a chunk ``(j, c)`` to its slot, and the live chunks sit
    side by side.  Chunk ``(j, c)`` goes to ``(j + 1, c)``: the chunks
    whose target this PE owns move in place; the others travel to the PE
    ``spread`` places to the right as one stacked array in one ``Put``
    (``count`` still names one message per chunk), and the matching
    array from the PE ``spread`` places to the left lands in one
    assignment.
    """
    rank, nproc, s = ctx.rank, ctx.nproc, layout.spread
    tgts = [(j + 1, c) for j, c in live]
    away = np.array([layout.owner(j, c) != rank for j, c in tgts],
                    dtype=bool)
    first = pos[live[0]] if live else 0
    blocks = uppers[:, first:first + len(live)]
    moves = [([t for t, a in zip(tgts, away) if not a], blocks[:, ~away])]
    if nproc > 1:
        out = blocks[:, away]                   # a copy, as is ~away's
        yield Put(dest=(rank + s) % nproc, tag=("shift", step),
                  payload=([t for t, a in zip(tgts, away) if a], out),
                  words=out.size, count=out.shape[1], category="shift")
        moves.append((yield Recv(src=(rank - s) % nproc,
                                 tag=("shift", step))))
    for keys, arr in moves:
        try:
            slots = [pos[k] for k in keys]
        except KeyError as exc:
            # A malformed layout: surface it rather than corrupt R.
            raise DistributionError(
                f"rank {ctx.rank} received shift for foreign block "
                f"{exc.args[0]}") from None
        uppers[:, slots] = arr


def bulk_program(ctx, *, layout: Layout, m: int, p: int, w: np.ndarray,
                 gen: np.ndarray, representation: str = "vy2",
                 node_model=None, packed=None):
    """Rank program for Versions 1, 2 and 3.

    ``gen`` is the whole ``2m × mp`` generator (read only); each PE
    works on a copy of its own chunks of ``m / spread`` columns (whole
    block columns for Versions 1/2).  When ``packed`` (a
    :class:`~repro.core.packed.PackedUpper`) is given, each PE writes
    its blocks of ``R`` into it as they are finished.
    """
    rank = ctx.rank
    step = ColumnStep(w, gen.dtype, breakdown_tol=SchurOptions.breakdown_tol)
    s = layout.spread
    mc = layout.chunk_width(m)
    my_chunks = layout.chunks_of(rank, p)
    cols = column_index([j * m + c * mc for (j, c) in my_chunks], mc)
    data = gen[:, cols]
    uppers = data[:m].reshape(m, -1, mc)
    pos = {jc: idx for idx, jc in enumerate(my_chunks)}

    def upper_chunk(j, c):
        idx = pos[(j, c)]
        return data[:m, idx * mc:(idx + 1) * mc]

    def lower_chunk(j, c):
        idx = pos[(j, c)]
        return data[m:, idx * mc:(idx + 1) * mc]

    def write_row(i):
        # Chunks of the pivot block are cut at the diagonal; the chunks
        # right of it go in one strip.
        first = bisect.bisect_left(my_chunks, (i, 0))
        after = bisect.bisect_left(my_chunks, (i + 1, 0))
        for j, c in my_chunks[first:after]:
            packed.write_block(i * m, j * m + c * mc, upper_chunk(j, c))
        packed.write_columns(i * m, cols[after * mc:],
                             data[:m, after * mc:])

    # R block row 0 is the initial upper generator row.
    if packed is not None:
        write_row(0)
        yield GATHER

    last = bisect.bisect_left(my_chunks, (p - 1, 0))
    for i in range(1, p):
        # ---------------- Phase 3 (shift) -------------------------------
        # The live chunks are those of blocks i − 1 … p − 2.
        live = my_chunks[bisect.bisect_left(my_chunks, (i - 1, 0)):last]
        yield from _shift(ctx, i, layout, uppers, pos, live)

        # ---- s sequential partial builds + broadcasts + applications ----
        for c in range(s):
            # ------------ Phase 1 (build) -------------------------------
            root = layout.owner(i, c)
            payload = None
            if rank == root:
                payload = build_transform(
                    step, upper_chunk(i, c), lower_chunk(i, c),
                    representation, row_offset=c * mc)
                yield _charge(node_model,
                              flops.blocking_calls(
                                  m, representation=representation,
                                  cols=mc, start_index=c * mc),
                              "blocking")

            # ------------ broadcast -------------------------------------
            words = flops.transform_words(representation, m, k=mc) + mc
            got = yield Broadcast(root=root, payload=payload, words=words,
                                  category="broadcast")
            u_block, negrows = got

            # ------------ Phase 2 (apply to chunks after (i, c)) --------
            start = bisect.bisect_right(my_chunks, (i, c)) * mc
            if start < data.shape[1]:
                upv = data[:m, start:]
                apply_transform(u_block, negrows, upv, data[m:, start:])
                yield _charge(node_model,
                              flops.application_calls(
                                  m, upv.shape[1],
                                  representation=representation, k=mc),
                              "application")

        if packed is not None:
            write_row(i)
            yield GATHER

        yield Barrier()
