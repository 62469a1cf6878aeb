"""SPMD rank programs for the distributed block Schur algorithm.

Two programs, mirroring the paper's implementation structure (Section
7.1): a whole-block program for Versions 1/2 (block-cyclic by groups of
``b``) and a chunked program for Version 3 (each block spread over ``s``
PEs).  Both follow the bulk-synchronous compute/communicate paradigm with
a barrier per elimination step, exactly as the paper assumes.

Per step ``i`` (whole-block version):

1. *shift* — every PE forwards the upper halves of its live blocks
   ``j → j+1``; with cyclic layouts all crossings go to the right
   neighbor (one ``shmem_put`` of ``O(k_active · m²)`` words);
2. *build* — the owner of block ``i`` eliminates its lower pivot block
   against the upper one, producing the block hyperbolic Householder
   transformation;
3. *broadcast* — the transformation (in the chosen representation, with
   its sparsity-aware volume) goes to all PEs;
4. *apply* — every PE applies it to its live block columns (level-3);
5. *barrier*.

Version 3 replaces step 2–3 with ``s`` sequential partial builds and
broadcasts (one per chunk owner), trading extra communication for
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

The programs are written once and run on two executors: the simulated
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
from repro.parallel.distributions import (
    BlockCyclicLayout,
    SpreadLayout,
    make_layout,
)

__all__ = ["block_cyclic_program", "spread_program", "column_index",
           "resolve_run"]


#: Ends each write of ``R``: free on the simulator, timed as the
#: ``gather`` phase on real processes.
GATHER = Compute(0.0, "gather")


def resolve_run(t, nproc: int | None = None, *, b: float = 1, plan=None,
                layout=None, representation: str | None = None,
                schedule: str | None = None):
    """Resolve and check one distributed factorization of ``t``.

    The one front end of both executors
    (:func:`~repro.parallel.driver.simulate_factorization` and
    :func:`~repro.parallel.mp_backend.mp_factorization`): ``plan``
    supplies ``nproc``, ``b``, ``representation`` and ``schedule``
    unless they are given; ``b`` (or an explicit ``layout``) selects the
    Version 1/2/3 distribution.  Returns ``(layout, generator, program,
    representation, schedule)``.

    Raises
    ------
    DistributionError
        Without ``nproc``, for an unknown schedule or layout, for
        lookahead off the Version 1 layout or on one PE, and for Version
        3 unless ``spread`` divides ``m``.
    ShapeError
        For fewer than 2 block columns.
    NotPositiveDefiniteError
        When the leading block is not positive definite.
    """
    from repro.engine.plan import SCHEDULES

    if plan is not None:
        if nproc is None:
            nproc = plan.nproc
        if layout is None and plan.distribution_b is not None:
            b = plan.distribution_b
        representation = representation or plan.representation
        schedule = schedule or getattr(plan, "schedule", "bulk")
    representation = representation or "vy2"
    schedule = schedule or "bulk"
    if schedule not in SCHEDULES:
        raise DistributionError(
            f"unknown schedule {schedule!r}; expected one of {SCHEDULES}")
    if layout is None:
        if nproc is None:
            raise DistributionError(
                "nproc is required (directly or through a SolverPlan)")
        layout = make_layout(nproc, b=b)
    m = t.block_size
    if schedule == "lookahead":
        from repro.parallel.lookahead import \
            block_cyclic_lookahead_program as program
        if not (isinstance(layout, BlockCyclicLayout)
                and layout.group_size == 1):
            raise DistributionError(
                "lookahead is implemented for the Version 1 layout")
        if layout.nproc < 2:
            raise DistributionError("lookahead needs at least 2 PEs")
    elif isinstance(layout, BlockCyclicLayout):
        program = block_cyclic_program
    elif isinstance(layout, SpreadLayout):
        program = spread_program
        layout.chunk_width(m)         # validates m % spread == 0
    else:
        raise DistributionError(f"unknown layout {layout!r}")
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


def _shift(ctx, step, uppers, pos, live, target, owner, dest, src):
    """Move the upper halves of the ``live`` blocks to their targets.

    ``uppers`` is the ``(m, nloc, width)`` view of this PE's upper rows;
    ``pos`` maps a block key to its slot, and the live blocks sit side
    by side.  Blocks whose target this PE owns move in place; the others
    travel to ``dest`` as one stacked array in one ``Put`` (``count``
    still names one message per block), and the matching array from
    ``src`` lands in one assignment.
    """
    tgts = [target(j) for j in live]
    away = np.array([owner(t) != ctx.rank for t in tgts], dtype=bool)
    first = pos[live[0]] if live else 0
    blocks = uppers[:, first:first + len(live)]
    moves = [([t for t, a in zip(tgts, away) if not a], blocks[:, ~away])]
    if ctx.nproc > 1:
        out = blocks[:, away]                   # a copy, as is ~away's
        yield Put(dest=dest, tag=("shift", step),
                  payload=([t for t, a in zip(tgts, away) if a], out),
                  words=out.size, count=out.shape[1], category="shift")
        moves.append((yield Recv(src=src, tag=("shift", step))))
    for keys, arr in moves:
        try:
            slots = [pos[k] for k in keys]
        except KeyError as exc:
            # A malformed layout: surface it rather than corrupt R.
            raise DistributionError(
                f"rank {ctx.rank} received shift for foreign block "
                f"{exc.args[0]}") from None
        uppers[:, slots] = arr


# ----------------------------------------------------------------------
# Versions 1 & 2: whole block columns
# ----------------------------------------------------------------------

def block_cyclic_program(ctx, *, layout: BlockCyclicLayout, m: int, p: int,
                         w: np.ndarray, gen: np.ndarray,
                         representation: str = "vy2",
                         node_model=None, packed=None):
    """Rank program for Versions 1/2.

    ``gen`` is the whole ``2m × mp`` generator (read only); each PE
    works on a copy of its own block columns.  When ``packed`` (a
    :class:`~repro.core.packed.PackedUpper`) is given, each PE writes
    its blocks of ``R`` into it as they are finished.
    """
    rank, nproc = ctx.rank, ctx.nproc
    step = ColumnStep(w, gen.dtype, breakdown_tol=SchurOptions.breakdown_tol)
    my_blocks = layout.blocks_of(rank, p)
    cols = column_index([j * m for j in my_blocks], m)
    data = gen[:, cols]
    uppers = data[:m].reshape(m, -1, m)
    pos = {j: idx for idx, j in enumerate(my_blocks)}

    def upper_block(j):
        return data[:m, pos[j] * m:(pos[j] + 1) * m]

    def lower_block(j):
        return data[m:, pos[j] * m:(pos[j] + 1) * m]

    def write_row(i):
        # The pivot block is cut at the diagonal; the blocks right of
        # it go in one strip.
        after = bisect.bisect_right(my_blocks, i)
        if after and my_blocks[after - 1] == i:
            packed.write_block(i * m, i * m, upper_block(i))
        packed.write_columns(i * m, cols[after * m:], data[:m, after * m:])

    # R block row 0 is the initial upper generator row.
    if packed is not None:
        write_row(0)
        yield GATHER

    for i in range(1, p):
        # ---------------- Phase 3 (shift) -------------------------------
        live = [j for j in my_blocks if i - 1 <= j <= p - 2]
        yield from _shift(ctx, i, uppers, pos, live, lambda j: j + 1,
                          layout.owner, (rank + 1) % nproc,
                          (rank - 1) % nproc)

        # ---------------- Phase 1 (build) -------------------------------
        pivot_owner = layout.owner(i)
        payload = None
        if rank == pivot_owner:
            payload = build_transform(step, upper_block(i), lower_block(i),
                                      representation)
            yield _charge(node_model,
                          flops.blocking_calls(
                              m, representation=representation),
                          "blocking")

        # ---------------- broadcast -------------------------------------
        words = flops.transform_words(representation, m) + m
        got = yield Broadcast(root=pivot_owner, payload=payload,
                              words=words, category="broadcast")
        u_block, negrows = got

        # ---------------- Phase 2 (apply) -------------------------------
        active = [j for j in my_blocks if j > i]
        if active:
            start = pos[active[0]] * m
            upv = data[:m, start:]
            apply_transform(u_block, negrows, upv, data[m:, start:])
            yield _charge(node_model,
                          flops.application_calls(
                              m, upv.shape[1],
                              representation=representation),
                          "application")

        if packed is not None:
            write_row(i)
            yield GATHER

        yield Barrier()


# ----------------------------------------------------------------------
# Version 3: spread blocks
# ----------------------------------------------------------------------

def spread_program(ctx, *, layout: SpreadLayout, m: int, p: int,
                   w: np.ndarray, gen: np.ndarray,
                   representation: str = "vy2",
                   node_model=None, packed=None):
    """Rank program for Version 3 (each block spread over ``s`` PEs).

    ``gen`` and ``packed`` as in :func:`block_cyclic_program`, with
    chunks of ``m / s`` columns in place of whole block columns.
    """
    rank, nproc = ctx.rank, ctx.nproc
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

    if packed is not None:
        write_row(0)
        yield GATHER

    for i in range(1, p):
        # ---------------- shift -----------------------------------------
        live = [(j, c) for (j, c) in my_chunks if i - 1 <= j <= p - 2]
        yield from _shift(ctx, i, uppers, pos, live,
                          lambda jc: (jc[0] + 1, jc[1]),
                          lambda jc: layout.owner(*jc),
                          (rank + s) % nproc, (rank - s) % nproc)

        # ------------- s sequential partial builds + broadcasts ---------
        for c in range(s):
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
            words = flops.transform_words(representation, m, k=mc) + mc
            got = yield Broadcast(root=root, payload=payload, words=words,
                                  category="broadcast")
            u_block, negrows = got
            # apply to chunks strictly after (i, c)
            active = [jc for jc in my_chunks
                      if jc[0] > i or (jc[0] == i and jc[1] > c)]
            if active:
                start = pos[active[0]] * mc
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
