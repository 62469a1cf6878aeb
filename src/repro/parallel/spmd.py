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

The numerics are real: the programs transform actual generator data, and
the assembled ``R`` matches the serial factorization to rounding.
Compute *time* is charged from the node performance model via the
primitive-call decomposition in :mod:`repro.parallel.costs`.
"""

from __future__ import annotations

import numpy as np

from repro.core.schur_spd import ColumnStep, eliminate_block
from repro.errors import DistributionError
from repro.machine.ops import Barrier, Broadcast, Compute, Put, Recv
from repro.parallel import costs
from repro.parallel.distributions import BlockCyclicLayout, SpreadLayout

__all__ = ["block_cyclic_program", "spread_program",
            "build_partial_transform"]


def _charge(model, calls, category):
    if model is None or not calls:
        return Compute(0.0, category)
    return Compute(model.time_many(calls), category)


# ----------------------------------------------------------------------
# Versions 1 & 2: whole block columns
# ----------------------------------------------------------------------

def block_cyclic_program(ctx, *, layout: BlockCyclicLayout, m: int, p: int,
                         w: np.ndarray, initial: dict[int, np.ndarray],
                         representation: str = "vy2",
                         node_model=None, collect: bool = True):
    """Rank program for Versions 1/2.  ``initial`` maps each rank to its
    ``(2m, nloc·m)`` slice of the generator (blocks in ascending order)."""
    rank, nproc = ctx.rank, ctx.nproc
    my_blocks = layout.blocks_of(rank, p)
    data = np.array(initial[rank]) if my_blocks else np.zeros((2 * m, 0))
    pos = {j: idx for idx, j in enumerate(my_blocks)}
    right = (rank + 1) % nproc
    left = (rank - 1) % nproc
    results: dict[tuple[int, int], np.ndarray] = {}

    def upper_block(j):
        return data[:m, pos[j] * m:(pos[j] + 1) * m]

    def lower_block(j):
        return data[m:, pos[j] * m:(pos[j] + 1) * m]

    # R block row 0 is the initial upper generator row.
    if collect:
        for j in my_blocks:
            results[(0, j)] = upper_block(j).copy()

    for i in range(1, p):
        # ---------------- Phase 3 (shift) -------------------------------
        live = [j for j in my_blocks if i - 1 <= j <= p - 2]
        outgoing: list[tuple[int, np.ndarray]] = []
        local_moves: list[tuple[int, np.ndarray]] = []
        for j in live:
            blockcopy = upper_block(j).copy()
            if layout.owner(j + 1) == rank:
                local_moves.append((j + 1, blockcopy))
            else:
                outgoing.append((j + 1, blockcopy))
        if nproc > 1:
            words = sum(b.size for _, b in outgoing)
            yield Put(dest=right, tag=("shift", i), payload=outgoing,
                      words=words, count=len(outgoing), category="shift")
            incoming = yield Recv(src=left, tag=("shift", i))
        else:
            incoming = []
        for tgt, blk in list(incoming) + local_moves:
            if tgt in pos:
                upper_block(tgt)[:] = blk
            # else: content for a block this PE does not own — malformed
            # layout; surface loudly rather than corrupt silently.
            else:
                raise DistributionError(
                    f"rank {rank} received shift for foreign block {tgt}")

        # ---------------- Phase 1 (build) -------------------------------
        pivot_owner = layout.owner(i)
        payload = None
        if rank == pivot_owner:
            collected = []
            up = upper_block(i)
            low = lower_block(i)
            eliminate_block(up, low, w, representation=representation,
                            panel=None, pivot_sign_fixup=False,
                            collect=collected)
            u_block = collected[0]
            negrows = np.nonzero(np.diag(up) < 0)[0]
            if negrows.size:
                up[negrows] *= -1.0
            payload = (u_block, negrows)
            yield _charge(node_model,
                          costs.blocking_calls(
                              m, representation=representation),
                          "blocking")

        # ---------------- broadcast -------------------------------------
        words = costs.transform_words(representation, m) + m
        got = yield Broadcast(root=pivot_owner, payload=payload,
                              words=words, category="broadcast")
        u_block, negrows = got

        # ---------------- Phase 2 (apply) -------------------------------
        active = [j for j in my_blocks if j > i]
        if active:
            start = pos[active[0]] * m
            upv = data[:m, start:]
            lov = data[m:, start:]
            u_block.apply_pair(upv, lov)
            if negrows.size:
                upv[negrows] *= -1.0
            yield _charge(node_model,
                          costs.application_calls(
                              m, upv.shape[1],
                              representation=representation),
                          "application")

        if collect:
            for j in my_blocks:
                if j >= i:
                    results[(i, j)] = upper_block(j).copy()

        yield Barrier()

    return results


# ----------------------------------------------------------------------
# Version 3: spread blocks
# ----------------------------------------------------------------------

def build_partial_transform(upper: np.ndarray, lower: np.ndarray,
                            w: np.ndarray, row_offset: int,
                            representation: str = "vy2"):
    """Eliminate the ``mc`` lower columns of one pivot *chunk*.

    ``upper``/``lower`` are ``m × mc`` views of the chunk (columns
    ``row_offset … row_offset+mc`` of the pivot block); the pivot entries
    sit at rows ``row_offset + k``.  Returns ``(U, negrows)`` where
    ``negrows`` are the pivot rows whose diagonal came out negative (to
    be sign-flipped machine-wide).
    """
    mc = upper.shape[1]
    column = ColumnStep(w, upper.dtype)
    acc = column.accumulator(representation)
    # Fortran-ordered working copies: the column step updates in place.
    fu = np.asfortranarray(upper)
    fl = np.asfortranarray(lower)
    for k in range(mc):
        x, beta = column(fu[:, k:], fl[:, k:], row_offset + k)
        acc.push(x, beta, column.support)
    upper[:] = fu
    lower[:] = fl
    u_block = acc.finish()
    diag = np.array([upper[row_offset + k, k] for k in range(mc)])
    negrows = row_offset + np.nonzero(diag < 0)[0]
    if negrows.size:
        upper[negrows] *= -1.0
    return u_block, negrows


def spread_program(ctx, *, layout: SpreadLayout, m: int, p: int,
                   w: np.ndarray, initial: dict[int, np.ndarray],
                   representation: str = "vy2",
                   node_model=None, collect: bool = True):
    """Rank program for Version 3 (each block spread over ``s`` PEs)."""
    rank, nproc = ctx.rank, ctx.nproc
    s = layout.spread
    mc = layout.chunk_width(m)
    my_chunks = layout.chunks_of(rank, p)
    data = np.array(initial[rank]) if my_chunks else np.zeros((2 * m, 0))
    pos = {jc: idx for idx, jc in enumerate(my_chunks)}
    right = (rank + s) % nproc
    left = (rank - s) % nproc
    results: dict[tuple[int, int, int], np.ndarray] = {}

    def upper_chunk(j, c):
        idx = pos[(j, c)]
        return data[:m, idx * mc:(idx + 1) * mc]

    def lower_chunk(j, c):
        idx = pos[(j, c)]
        return data[m:, idx * mc:(idx + 1) * mc]

    if collect:
        for (j, c) in my_chunks:
            results[(0, j, c)] = upper_chunk(j, c).copy()

    for i in range(1, p):
        # ---------------- shift -----------------------------------------
        live = [(j, c) for (j, c) in my_chunks if i - 1 <= j <= p - 2]
        outgoing = []
        local_moves = []
        for (j, c) in live:
            blockcopy = upper_chunk(j, c).copy()
            tgt = (j + 1, c)
            if layout.owner(*tgt) == rank:
                local_moves.append((tgt, blockcopy))
            else:
                outgoing.append((tgt, blockcopy))
        if nproc > 1:
            words = sum(b.size for _, b in outgoing)
            yield Put(dest=right, tag=("shift", i), payload=outgoing,
                      words=words, count=len(outgoing), category="shift")
            incoming = yield Recv(src=left, tag=("shift", i))
        else:
            incoming = []
        for tgt, blk in list(incoming) + local_moves:
            if tgt in pos:
                upper_chunk(*tgt)[:] = blk
            else:
                raise DistributionError(
                    f"rank {rank} received shift for foreign chunk {tgt}")

        # ------------- s sequential partial builds + broadcasts ---------
        for c in range(s):
            root = layout.owner(i, c)
            payload = None
            if rank == root:
                up = upper_chunk(i, c)
                low = lower_chunk(i, c)
                payload = build_partial_transform(
                    up, low, w, row_offset=c * mc,
                    representation=representation)
                yield _charge(node_model,
                              costs.blocking_calls(
                                  m, representation=representation,
                                  cols=mc, start_index=c * mc),
                              "blocking")
            words = costs.transform_words(representation, m, k=mc) + mc
            got = yield Broadcast(root=root, payload=payload, words=words,
                                  category="broadcast")
            u_block, negrows = got
            # apply to chunks strictly after (i, c)
            active = [jc for jc in my_chunks
                      if jc[0] > i or (jc[0] == i and jc[1] > c)]
            if active:
                start = pos[active[0]] * mc
                upv = data[:m, start:]
                lov = data[m:, start:]
                u_block.apply_pair(upv, lov)
                if negrows.size:
                    upv[negrows] *= -1.0
                yield _charge(node_model,
                              costs.application_calls(
                                  m, upv.shape[1],
                                  representation=representation, k=mc),
                              "application")

        if collect:
            for (j, c) in my_chunks:
                if j >= i:
                    results[(i, j, c)] = upper_chunk(j, c).copy()

        yield Barrier()

    return results
