"""Pipelined (lookahead) distributed factorization.

Section 6.5 remarks that it may be necessary to "allow overlap of the
production of U with the update of the remainder of the generator" —
the classical lookahead optimization.  The bulk-synchronous Version 1
program serializes every step as

    (pivot owner builds U_i) → broadcast → everyone applies → barrier,

so all PEs idle through the serial build.  This variant removes the
barrier and schedules work per *block* (depth-1 lookahead):

* each block ``j`` carries a step counter; ``advance(j, s)`` pulls the
  shifted upper rows from the left neighbor and applies the cached
  broadcast transformations one step at a time, shipping the
  transformed upper onward — blocks may lag and catch up;
* the transformed pivot row travels point-to-point down the *pivot
  chain* (owner(i) → owner(i+1)) right after each build;
* at step ``i``, the owner of step ``i+1`` advances **only its pivot
  block**, builds, ships the chain, and enters the next broadcast —
  its remaining blocks catch up after its turn, while the other PEs
  advance everything.

The broadcast is the only synchronization and completes at the latest
entrant, so the serial build overlaps the other PEs' application work:
the per-step critical path drops from ``apply + build + bcast`` toward
``max(apply, build + apply_one) + bcast``.  The numerics are identical
to the serial factorization (tests diff them); the benchmark harness
measures the simulated speedup over the plain Version 1 program.

Layout restriction: Version 1 (cyclic, one block per PE), NP ≥ 2.
"""

from __future__ import annotations

import numpy as np

from repro.core.schur_spd import eliminate_block
from repro.errors import DistributionError
from repro.machine.ops import Broadcast, Compute, Put, Recv
from repro.parallel import costs
from repro.parallel.distributions import BlockCyclicLayout
from repro.parallel.spmd import column_index

__all__ = ["block_cyclic_lookahead_program"]


def block_cyclic_lookahead_program(ctx, *, layout: BlockCyclicLayout,
                                   m: int, p: int, w: np.ndarray,
                                   gen: np.ndarray,
                                   representation: str = "vy2",
                                   node_model=None, packed=None):
    """Lookahead rank program (Version 1 layout, NP ≥ 2).

    ``gen`` and ``packed`` as in
    :func:`~repro.parallel.spmd.block_cyclic_program`.
    """
    rank, nproc = ctx.rank, ctx.nproc
    if layout.group_size != 1:
        raise DistributionError("lookahead implemented for Version 1")
    if nproc < 2:
        raise DistributionError("lookahead needs at least 2 PEs")
    my_blocks = layout.blocks_of(rank, p)
    data = gen[:, column_index([j * m for j in my_blocks], m)]
    pos = {j: idx for idx, j in enumerate(my_blocks)}
    u_cache: dict[int, tuple] = {}
    state = {j: 0 for j in my_blocks}
    app_calls = costs.application_calls(m, m,
                                        representation=representation)
    app_time = (node_model.time_many(app_calls)
                if node_model is not None else 0.0)
    build_calls = costs.blocking_calls(m, representation=representation)
    build_time = (node_model.time_many(build_calls)
                  if node_model is not None else 0.0)

    def upper_block(j):
        return data[:m, pos[j] * m:(pos[j] + 1) * m]

    def lower_block(j):
        return data[m:, pos[j] * m:(pos[j] + 1) * m]

    def advance(j, to_step):
        """Bring block ``j`` up to ``to_step`` (stops before its own
        pivot turn)."""
        while state[j] < min(to_step, j - 1):
            s = state[j] + 1
            upj = yield Recv(src=layout.owner(j - 1), tag=("up", s, j))
            upper_block(j)[:] = upj
            u_blk, neg = u_cache[s]
            u_blk.apply_pair(upper_block(j), lower_block(j))
            if neg.size:
                upper_block(j)[neg] *= -1.0
            yield Compute(app_time, category="application")
            if j <= p - 2:
                yield Put(dest=layout.owner(j + 1),
                          tag=("up", s + 1, j + 1),
                          payload=upper_block(j).copy(), words=m * m,
                          category="shift")
            state[j] = s
            if packed is not None:
                packed.write_block(s * m, j * m, upper_block(j))

    if packed is not None:
        for j in my_blocks:
            packed.write_block(0, j * m, upper_block(j))

    # Initial shift round: block j's upper at step 1 is the initial
    # upper of block j−1; block 0's heads the pivot chain.
    for j in my_blocks:
        if j == 0 and p >= 2:
            yield Put(dest=layout.owner(1), tag=("pivot", 1),
                      payload=upper_block(0).copy(), words=m * m,
                      category="shift")
        elif 1 <= j <= p - 2:
            yield Put(dest=layout.owner(j + 1), tag=("up", 1, j + 1),
                      payload=upper_block(j).copy(), words=m * m,
                      category="shift")

    for i in range(1, p):
        pivot_owner = layout.owner(i)
        payload = None
        if rank == pivot_owner:
            yield from advance(i, i - 1)
            up = np.array((yield Recv(src=layout.owner(i - 1),
                                      tag=("pivot", i))))
            low = lower_block(i)
            collected = []
            eliminate_block(up, low, w, representation=representation,
                            panel=None, pivot_sign_fixup=False,
                            collect=collected)
            u_block = collected[0]
            negrows = np.nonzero(np.diag(up) < 0)[0]
            if negrows.size:
                up[negrows] *= -1.0
            upper_block(i)[:] = up
            if packed is not None:
                packed.write_block(i * m, i * m, up)
            payload = (u_block, negrows)
            yield Compute(build_time, category="blocking")
            if i + 1 < p:
                yield Put(dest=layout.owner(i + 1), tag=("pivot", i + 1),
                          payload=up.copy(), words=m * m,
                          category="shift")

        words = costs.transform_words(representation, m) + m
        u_cache[i] = yield Broadcast(root=pivot_owner, payload=payload,
                                     words=words, category="broadcast")

        # Depth-1 lookahead: the next pivot owner advances only its
        # pivot block before rushing to the next build; everyone else
        # brings all live blocks current.
        am_next_owner = (i + 1 < p and rank == layout.owner(i + 1))
        live = [j for j in my_blocks if j > i]
        if am_next_owner:
            yield from advance(i + 1, i)
        else:
            for j in live:
                yield from advance(j, i)
