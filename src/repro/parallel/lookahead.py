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

The program is written once for both executors.  It communicates and
books its phases through four generator methods of a transport
(``recv``, ``put``, ``bcast``, ``compute``): :class:`Ops`, the default,
yields the simulator's ops; on real processes
(:mod:`repro.parallel.mp_backend`) they read and write shared slots and
return without yielding, because the schedule sends about one message
per block-step and building and interpreting an op for each would cost
more than the work.

Layout restriction: Version 1 (cyclic, one block per PE), NP ≥ 2
(checked by :func:`~repro.parallel.spmd.resolve_run`).
"""

from __future__ import annotations

import numpy as np

from repro.core import flops
from repro.core.schur_spd import (
    ColumnStep,
    SchurOptions,
    apply_transform,
    build_transform,
)
from repro.machine.ops import Broadcast, Compute, Put, Recv
from repro.parallel.distributions import Layout
from repro.parallel.spmd import column_index

__all__ = ["Ops", "block_cyclic_lookahead_program"]


class Ops:
    """The simulator's transport: each method yields one op.

    ``put`` ships a copy of ``block`` (the sender keeps updating it);
    ``recv`` and ``bcast`` return the payload.
    """

    def recv(self, src, tag):
        return (yield Recv(src=src, tag=tag))

    def put(self, dest, tag, block):
        yield Put(dest=dest, tag=tag, payload=block.copy(),
                  words=block.size, category="shift")

    def bcast(self, root, payload, words):
        return (yield Broadcast(root=root, payload=payload, words=words,
                                category="broadcast"))

    def compute(self, seconds, category):
        yield Compute(seconds, category=category)


def block_cyclic_lookahead_program(ctx, *, layout: Layout,
                                   m: int, p: int, w: np.ndarray,
                                   gen: np.ndarray,
                                   representation: str = "vy2",
                                   node_model=None, packed=None,
                                   comm=Ops()):
    """Lookahead rank program (Version 1 layout, NP ≥ 2).

    ``gen`` and ``packed`` as in
    :func:`~repro.parallel.spmd.bulk_program`; ``comm`` is the
    transport (see the module docstring).
    """
    rank = ctx.rank
    step = ColumnStep(w, gen.dtype, breakdown_tol=SchurOptions.breakdown_tol)
    my_blocks = layout.blocks_of(rank, p)
    data = gen[:, column_index([j * m for j in my_blocks], m)]
    pos = {j: idx for idx, j in enumerate(my_blocks)}
    u_cache: dict[int, tuple] = {}
    state = {j: 0 for j in my_blocks}
    app_calls = flops.application_calls(m, m,
                                        representation=representation)
    app_time = (node_model.time_many(app_calls)
                if node_model is not None else 0.0)
    build_calls = flops.blocking_calls(m, representation=representation)
    build_time = (node_model.time_many(build_calls)
                  if node_model is not None else 0.0)

    def upper_block(j):
        return data[:m, pos[j] * m:(pos[j] + 1) * m]

    def lower_block(j):
        return data[m:, pos[j] * m:(pos[j] + 1) * m]

    def advance(j, to_step):
        """Bring block ``j`` up to ``to_step`` (stops before its own
        pivot turn)."""
        up, low = upper_block(j), lower_block(j)
        src, dest = layout.owner(j - 1), layout.owner(j + 1)
        for s in range(state[j] + 1, min(to_step, j - 1) + 1):
            up[:] = yield from comm.recv(src, ("up", s, j))
            apply_transform(*u_cache[s], up, low)
            yield from comm.compute(app_time, "application")
            if j <= p - 2:
                yield from comm.put(dest, ("up", s + 1, j + 1), up)
            state[j] = s
            if packed is not None:
                packed.write_block(s * m, j * m, up)
                yield from comm.compute(0.0, "gather")

    if packed is not None:
        for j in my_blocks:
            packed.write_block(0, j * m, upper_block(j))
        yield from comm.compute(0.0, "gather")

    # Initial shift round: block j's upper at step 1 is the initial
    # upper of block j−1; block 0's heads the pivot chain.
    for j in my_blocks:
        if j == 0:
            yield from comm.put(layout.owner(1), ("pivot", 1),
                                upper_block(0))
        elif j <= p - 2:
            yield from comm.put(layout.owner(j + 1), ("up", 1, j + 1),
                                upper_block(j))

    words = flops.transform_words(representation, m) + m
    for i in range(1, p):
        pivot_owner = layout.owner(i)
        payload = None
        if rank == pivot_owner:
            yield from advance(i, i - 1)
            up = upper_block(i)
            up[:] = yield from comm.recv(layout.owner(i - 1), ("pivot", i))
            payload = build_transform(step, up, lower_block(i),
                                      representation)
            yield from comm.compute(build_time, "blocking")
            if packed is not None:
                packed.write_block(i * m, i * m, up)
                yield from comm.compute(0.0, "gather")
            if i + 1 < p:
                yield from comm.put(layout.owner(i + 1), ("pivot", i + 1), up)

        u_cache[i] = yield from comm.bcast(pivot_owner, payload, words)

        # Depth-1 lookahead: the next pivot owner advances only its
        # pivot block before rushing to the next build; everyone else
        # brings all live blocks current.
        if i + 1 < p and rank == layout.owner(i + 1):
            yield from advance(i + 1, i)
        else:
            for j in my_blocks:
                if j > i:
                    yield from advance(j, i)
