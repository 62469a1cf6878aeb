"""Real multiprocess SPMD backend for the distributed block Schur
algorithm.

Where :mod:`repro.parallel.driver` runs the paper's Section-7 programs on
the *simulated* T3D, this module runs them for real: one OS process per
PE, the ``2m × mp`` generator in a shared segment (the stand-in for the
T3D's globally addressable memory, created through the pluggable
:mod:`repro.parallel.transport` layer — ``shared_memory`` by default),
and the same three data distributions deciding which PE owns which block
columns (Versions 1/2) or column chunks (Version 3).

Three SPMD programs run here:

* the **bulk** factorization schedule — the per-step structure of
  :mod:`repro.parallel.spmd` exactly: shift, barrier, broadcast the
  pivot panel, replicated build, apply, barrier;
* the **lookahead** factorization schedule — the Section-6.5/7 pipelined
  variant of :mod:`repro.parallel.lookahead` ported to real processes:
  no global barriers at all.  Blocks advance independently through
  write-once slots (the ``("up", s, j)`` messages), the transformed
  pivot row travels point-to-point down the pivot chain, and the block
  transformation ``U_i`` is built **once** at the pivot owner and
  shipped (pickled) to the other PEs — so the serial generator build
  overlaps the application work instead of idling every PE behind a
  per-step barrier, and is no longer replicated ``NP``-fold;
* the **triangular solve** program — the distributed forward/backward
  sweeps of :mod:`repro.parallel.spmd_solve` for vector and ``n × k``
  panel right-hand sides, with per-PE level-3 sweeps over each PE's
  local columns.

Workers gather ``R`` block by block straight into one packed segment
(:class:`~repro.core.packed.PackedUpper`, ``n(n+1)/2`` words), which the
parent copies out once; the triangular solve shares the packed buffer
with its workers the same way.

Communication volume is *counted* with the same formulas the simulator
charges (shift words per put, §6.3 transform words per broadcast,
``m·k`` words per solve collective), so the counters of a real run and a
simulated run of the same plan are directly comparable — see
:meth:`~repro.machine.simulator.MachineReport.words_by_rank` and
:meth:`~repro.machine.simulator.MachineReport.broadcast_words_by_rank`.

Workers time their phases (shift / broadcast / blocking / application /
barrier / wait / gather) and ship the accounting back over a queue; the
parent reconstructs per-PE spans that merge into the observability
pipeline (:func:`repro.obs.adopt_span`, the unified JSONL schema with
the ``rank`` field set).

Everything degrades gracefully: :func:`multiprocess_available` probes
the platform (``/dev/shm``, semaphores; ``REPRO_MP_DISABLE=1`` forces it
off) and the engine falls back to the simulated backend — with the
reason recorded — when the probe fails.  Shared segments are owned by a
:class:`~repro.parallel.transport.TransportSession` whose cleanup runs
unconditionally, so a worker dying mid-step cannot leak ``/dev/shm``
segments (``REPRO_MP_CRASH=rank:stage`` injects such deaths for the
leak tests).
"""

from __future__ import annotations

import bisect
import os
import pickle
import time
import traceback
from dataclasses import dataclass

import numpy as np

import repro.obs as obs
from repro.core.generator import spd_generator
from repro.core.packed import PackedUpper, packed_size
from repro.core.schur_spd import eliminate_block
from repro.errors import (
    DistributionError,
    MultiprocessUnavailableError,
    NotPositiveDefiniteError,
    ShapeError,
)
from repro.obs.export import merge_rank_traces, span_records
from repro.obs.schema import SOURCE_MULTIPROCESS
from repro.obs.spans import Span
from repro.parallel import costs
from repro.parallel.distributions import (
    BlockCyclicLayout,
    SpreadLayout,
    make_layout,
)
from repro.parallel.spmd import build_partial_transform
from repro.parallel.transport import get_transport
from repro.toeplitz.block_toeplitz import SymmetricBlockToeplitz
from repro.utils.lintools import solve_upper_triangular

__all__ = [
    "MPRun",
    "MPSolveRun",
    "mp_factorization",
    "mp_triangular_solve",
    "multiprocess_available",
    "SCHEDULES",
]

#: Seconds a worker waits at a barrier (or on a lookahead slot) before
#: declaring the run wedged.
_BARRIER_TIMEOUT = 300.0

#: Legal values of the factorization schedule.
SCHEDULES = ("bulk", "lookahead")

#: Pickle-slot bytes reserved per step for the shipped ``U_i`` — sized
#: far above the few-KB reflector payloads (measured ~2.5 KB at m=8).
def _u_slot_bytes(m: int) -> int:
    return 256 * m * m + 16384


# ----------------------------------------------------------------------
# Availability
# ----------------------------------------------------------------------
def _mp_context():
    return get_transport("shared_memory").context()


def multiprocess_available(*, refresh: bool = False,
                           transport: str = "shared_memory"
                           ) -> tuple[bool, str]:
    """Whether the real multiprocess backend can run here.

    Returns ``(ok, reason)``; ``reason`` explains a ``False`` (it is the
    string the engine records when it falls back to simulation).  The
    platform probe — can the named transport create segments and
    semaphores? — is cached per transport; ``REPRO_MP_DISABLE`` (any
    truthy value) short-circuits it, which is also the tested fallback
    path.
    """
    if os.environ.get("REPRO_MP_DISABLE", "").lower() not in \
            ("", "0", "false"):
        return False, "disabled by REPRO_MP_DISABLE"
    try:
        tr = get_transport(transport)
    except DistributionError as exc:
        return False, str(exc)
    return tr.probe(refresh=refresh) if transport == "shared_memory" \
        else tr.probe()


# ----------------------------------------------------------------------
# Worker programs (module level: importable under the spawn method)
# ----------------------------------------------------------------------
class _Phases:
    """Tiny phase-time accumulator (perf_counter is monotonic and —
    on Linux — shares its epoch across processes, so parent-side span
    rendering lines the workers up correctly)."""

    __slots__ = ("acc", "_t0")

    def __init__(self):
        self.acc: dict[str, float] = {}
        self._t0 = 0.0

    def start(self):
        self._t0 = time.perf_counter()

    def stop(self, name: str):
        self.acc[name] = self.acc.get(name, 0.0) + \
            (time.perf_counter() - self._t0)


def _maybe_crash(rank: int, stage: str) -> None:
    """Crash-injection hook: ``REPRO_MP_CRASH=rank:stage`` makes that
    worker die hard (``os._exit``) at the named stage — before attaching
    (``spawn``) or after attaching but before any synchronization
    (``attach``).  Exercises the parent's segment-cleanup guarantees."""
    if os.environ.get("REPRO_MP_CRASH", "") == f"{rank}:{stage}":
        os._exit(3)


def _finish(rank, queue, t_start, phases, attrs):
    attrs["rank"] = rank
    queue.put((rank, {
        "ok": True, "rank": rank,
        "start": t_start, "end": time.perf_counter(),
        "phases": phases.acc, "attrs": attrs,
    }))


def _fail(rank, queue, barrier, exc, poison=None):
    from repro.errors import BreakdownError, NotPositiveDefiniteError
    kind = "breakdown" if isinstance(
        exc, (BreakdownError, NotPositiveDefiniteError)) else "error"
    if poison is not None:
        try:
            poison[0] = 1    # release peers spinning on lookahead slots
        except Exception:
            pass
    if barrier is not None:
        try:
            barrier.abort()   # release peers parked on the barrier
        except Exception:
            pass
    queue.put((rank, {"ok": False, "kind": kind,
                      "error": f"{exc}\n{traceback.format_exc()}"}))


def _close_all(attachments) -> None:
    for att in attachments:
        if att is not None:
            att.close()


def _block_cyclic_worker(rank, nproc, tname, gen_h, r_h, m, p, w, layout,
                         representation, collect, barrier, queue):
    """One PE of the Versions-1/2 bulk program on shared segments."""
    atts = []
    try:
        _maybe_crash(rank, "spawn")
        tr = get_transport(tname)
        gen_att = tr.attach(gen_h)
        atts.append(gen_att)
        gen = gen_att.array
        r = None
        if collect:
            r_att = tr.attach(r_h)
            atts.append(r_att)
            r = PackedUpper(r_att.array, m * p)
        _maybe_crash(rank, "attach")
        my_blocks = layout.blocks_of(rank, p)
        phases = _Phases()
        shift_words = shift_messages = 0
        bcast_words = 0
        t_start = time.perf_counter()

        def upper(j):
            return gen[:m, j * m:(j + 1) * m]

        def lower(j):
            return gen[m:, j * m:(j + 1) * m]

        def wait():
            phases.start()
            barrier.wait(timeout=_BARRIER_TIMEOUT)
            phases.stop("barrier")

        if collect:
            phases.start()
            for j in my_blocks:
                r.write_block(0, j * m, upper(j))
            phases.stop("gather")
        wait()

        for i in range(1, p):
            # -------- shift: copy aside, barrier, put into j+1 slots --
            live = [j for j in my_blocks if i - 1 <= j <= p - 2]
            phases.start()
            moved = [(j + 1, upper(j).copy()) for j in live]
            crossings = sum(1 for j in live
                            if layout.owner(j + 1) != rank)
            shift_words += crossings * m * m
            shift_messages += crossings
            phases.stop("shift")
            wait()
            phases.start()
            for tgt, blk in moved:
                upper(tgt)[:] = blk       # shmem put (maybe foreign slot)
            phases.stop("shift")
            wait()

            # -------- broadcast: snapshot the pivot panel -------------
            phases.start()
            up_c = upper(i).copy()
            low_c = lower(i).copy()
            bcast_words += costs.transform_words(representation, m) + m
            phases.stop("broadcast")
            wait()

            # -------- build (replicated) ------------------------------
            phases.start()
            collected: list = []
            eliminate_block(up_c, low_c, w, representation=representation,
                            panel=None, pivot_sign_fixup=False,
                            collect=collected)
            u_block = collected[0]
            negrows = np.nonzero(np.diag(up_c) < 0)[0]
            if negrows.size:
                up_c[negrows] *= -1.0
            if layout.owner(i) == rank:
                upper(i)[:] = up_c
                lower(i)[:] = 0.0
            phases.stop("blocking")

            # -------- apply to own trailing blocks --------------------
            phases.start()
            for j in my_blocks:
                if j > i:
                    u_block.apply_pair(upper(j), lower(j))
                    if negrows.size:
                        upper(j)[negrows] *= -1.0
            phases.stop("application")

            if collect:
                phases.start()
                for j in my_blocks:
                    if j >= i:
                        r.write_block(i * m, j * m, upper(j))
                phases.stop("gather")
            wait()

        _finish(rank, queue, t_start, phases, {
            "blocks": len(my_blocks), "steps": p - 1,
            "shift_words": shift_words,
            "shift_messages": shift_messages,
            "broadcast_words": bcast_words,
        })
    except Exception as exc:                  # noqa: BLE001 — shipped back
        _fail(rank, queue, barrier, exc)
    finally:
        _close_all(atts)


def _spread_worker(rank, nproc, tname, gen_h, r_h, m, p, w, layout,
                   representation, collect, barrier, queue):
    """One PE of the Version-3 (spread) program on shared segments."""
    atts = []
    try:
        _maybe_crash(rank, "spawn")
        tr = get_transport(tname)
        gen_att = tr.attach(gen_h)
        atts.append(gen_att)
        gen = gen_att.array
        r = None
        if collect:
            r_att = tr.attach(r_h)
            atts.append(r_att)
            r = PackedUpper(r_att.array, m * p)
        _maybe_crash(rank, "attach")
        s = layout.spread
        mc = layout.chunk_width(m)
        my_chunks = layout.chunks_of(rank, p)
        phases = _Phases()
        shift_words = shift_messages = 0
        bcast_words = 0
        t_start = time.perf_counter()

        def col0(j, c):
            return j * m + c * mc

        def upper(j, c):
            return gen[:m, col0(j, c):col0(j, c) + mc]

        def lower(j, c):
            return gen[m:, col0(j, c):col0(j, c) + mc]

        def wait():
            phases.start()
            barrier.wait(timeout=_BARRIER_TIMEOUT)
            phases.stop("barrier")

        if collect:
            phases.start()
            for (j, c) in my_chunks:
                r.write_block(0, col0(j, c), upper(j, c))
            phases.stop("gather")
        wait()

        for i in range(1, p):
            # -------- shift -------------------------------------------
            live = [(j, c) for (j, c) in my_chunks if i - 1 <= j <= p - 2]
            phases.start()
            moved = [((j + 1, c), upper(j, c).copy()) for (j, c) in live]
            crossings = sum(1 for (j, c) in live
                            if layout.owner(j + 1, c) != rank)
            shift_words += crossings * m * mc
            shift_messages += crossings
            phases.stop("shift")
            wait()
            phases.start()
            for (tj, tc), blk in moved:
                upper(tj, tc)[:] = blk
            phases.stop("shift")
            wait()

            # ---- s sequential partial builds + panel broadcasts ------
            for c in range(s):
                phases.start()
                up_c = upper(i, c).copy()
                low_c = lower(i, c).copy()
                bcast_words += costs.transform_words(
                    representation, m, k=mc) + mc
                phases.stop("broadcast")
                wait()

                phases.start()
                u_block, negrows = build_partial_transform(
                    up_c, low_c, w, row_offset=c * mc,
                    representation=representation)
                if layout.owner(i, c) == rank:
                    upper(i, c)[:] = up_c
                    lower(i, c)[:] = low_c
                phases.stop("blocking")

                phases.start()
                for (j, cc) in my_chunks:
                    if j > i or (j == i and cc > c):
                        u_block.apply_pair(upper(j, cc), lower(j, cc))
                        if negrows.size:
                            upper(j, cc)[negrows] *= -1.0
                phases.stop("application")
                wait()

            if collect:
                phases.start()
                for (j, c) in my_chunks:
                    if j >= i:
                        r.write_block(i * m, col0(j, c), upper(j, c))
                phases.stop("gather")
            wait()

        _finish(rank, queue, t_start, phases, {
            "blocks": len(my_chunks), "steps": p - 1,
            "shift_words": shift_words,
            "shift_messages": shift_messages,
            "broadcast_words": bcast_words,
        })
    except Exception as exc:                  # noqa: BLE001 — shipped back
        _fail(rank, queue, barrier, exc)
    finally:
        _close_all(atts)


def _spin_wait(flags, idx, poison, phases, what):
    """Wait for a write-once flag without a global barrier.

    A handful of ``time.sleep(0)`` yields catches flags that are about
    to land, then the wait escalates to short real sleeps: the waiter
    is blocked on a *peer's* compute, so burning its timeslice on
    sched_yield churn (hundreds of µs per wait on an oversubscribed
    host) only slows the rank it is waiting for.  ``poison`` releases
    every waiter when a peer fails.  Payload visibility relies on the
    x86-TSO store order of the flag-after-data writes; the parity tests
    would catch a platform where that assumption breaks.
    """
    if flags[idx]:
        return
    phases.start()
    deadline = time.monotonic() + _BARRIER_TIMEOUT
    spins = 0
    while not flags[idx]:
        if poison[0]:
            phases.stop("wait")
            raise DistributionError("lookahead peer aborted")
        spins += 1
        time.sleep(0 if spins < 16 else 0.0001)
        if time.monotonic() > deadline:
            phases.stop("wait")
            raise DistributionError(
                f"lookahead timed out waiting for {what}")
    phases.stop("wait")


def _lookahead_worker(rank, nproc, tname, gen_h, r_h, ups_h, upflag_h,
                      piv_h, pivflag_h, uslot_h, ulen_h, poison_h,
                      m, p, w, layout, representation, collect, queue):
    """One PE of the Section-7 lookahead schedule (Version 1, NP ≥ 2).

    A barrier-free port of
    :func:`repro.parallel.lookahead.block_cyclic_lookahead_program`:
    the simulated program's ``Put``/``Recv`` pairs become write-once
    slots + flags, its per-step ``Broadcast`` of the built ``U_i``
    becomes one pickled slot written by the pivot owner — so the serial
    build happens once per step instead of ``NP`` times — and all
    synchronization is dataflow (each PE blocks only on the specific
    slot it needs next).  Comm counters mirror the simulated program's
    operations one for one.
    """
    atts = []
    poison = None
    try:
        _maybe_crash(rank, "spawn")
        tr = get_transport(tname)

        def att(handle):
            a = tr.attach(handle)
            atts.append(a)
            return a.array

        gen = att(gen_h)
        poison = att(poison_h)
        _maybe_crash(rank, "attach")
        ups, upflag = att(ups_h), att(upflag_h)
        piv, pivflag = att(piv_h), att(pivflag_h)
        uslot, ulen = att(uslot_h), att(ulen_h)
        r = PackedUpper(att(r_h), m * p) if collect else None

        my_blocks = layout.blocks_of(rank, p)
        # Private working copy of this PE's block columns (the shared
        # generator segment is read-only input under this schedule).
        if my_blocks:
            data = np.concatenate(
                [gen[:, j * m:(j + 1) * m] for j in my_blocks], axis=1)
        else:
            data = np.zeros((2 * m, 0))
        pos = {j: idx for idx, j in enumerate(my_blocks)}
        state = {j: 0 for j in my_blocks}
        u_cache: dict[int, tuple] = {}
        phases = _Phases()
        shift_words = shift_messages = 0
        bcast_words = 0
        tw = costs.transform_words(representation, m) + m
        t_start = time.perf_counter()

        def upper(j):
            return data[:m, pos[j] * m:(pos[j] + 1) * m]

        def lower(j):
            return data[m:, pos[j] * m:(pos[j] + 1) * m]

        def put_up(s, tgt, blk):
            nonlocal shift_words, shift_messages
            phases.start()
            ups[s, tgt] = blk
            upflag[s, tgt] = 1
            shift_words += m * m
            shift_messages += 1
            phases.stop("shift")

        def put_pivot(i, blk):
            nonlocal shift_words, shift_messages
            phases.start()
            piv[i] = blk
            pivflag[i] = 1
            shift_words += m * m
            shift_messages += 1
            phases.stop("shift")

        def advance(j, to_step):
            """Bring block ``j`` up to ``to_step`` (stops before its
            own pivot turn)."""
            while state[j] < min(to_step, j - 1):
                s = state[j] + 1
                _spin_wait(upflag[s], j, poison, phases, f"up({s},{j})")
                upper(j)[:] = ups[s, j]
                u_blk, neg = u_cache[s]
                phases.start()
                u_blk.apply_pair(upper(j), lower(j))
                if neg.size:
                    upper(j)[neg] *= -1.0
                phases.stop("application")
                if j <= p - 2:
                    put_up(s + 1, j + 1, upper(j))
                state[j] = s
                if collect:
                    phases.start()
                    r.write_block(s * m, j * m, upper(j))
                    phases.stop("gather")

        if collect:
            phases.start()
            for j in my_blocks:
                r.write_block(0, j * m, upper(j))
            phases.stop("gather")

        # Initial shift round: block j's upper at step 1 is the initial
        # upper of block j−1; block 0's heads the pivot chain.
        for j in my_blocks:
            if j == 0 and p >= 2:
                put_pivot(1, upper(0))
            elif 1 <= j <= p - 2:
                put_up(1, j + 1, upper(j))

        slot = uslot.shape[1]
        for i in range(1, p):
            pivot_owner = layout.owner(i)
            if rank == pivot_owner:
                advance(i, i - 1)
                _spin_wait(pivflag, i, poison, phases, f"pivot({i})")
                up = piv[i].copy()
                low = lower(i)
                phases.start()
                collected: list = []
                eliminate_block(up, low, w,
                                representation=representation,
                                panel=None, pivot_sign_fixup=False,
                                collect=collected)
                u_block = collected[0]
                negrows = np.nonzero(np.diag(up) < 0)[0]
                if negrows.size:
                    up[negrows] *= -1.0
                upper(i)[:] = up
                phases.stop("blocking")
                if collect:
                    phases.start()
                    r.write_block(i * m, i * m, up)
                    phases.stop("gather")
                if i + 1 < p:
                    put_pivot(i + 1, up)
                # "Broadcast": build once, ship the pickled transform.
                phases.start()
                buf = pickle.dumps((u_block, negrows), protocol=5)
                if len(buf) > slot:
                    raise DistributionError(
                        f"U payload ({len(buf)} B) exceeds the "
                        f"{slot} B transport slot")
                uslot[i, :len(buf)] = np.frombuffer(buf, dtype=np.uint8)
                ulen[i] = len(buf)
                u_cache[i] = (u_block, negrows)
                bcast_words += tw
                phases.stop("broadcast")
            else:
                _spin_wait(ulen, i, poison, phases, f"U({i})")
                phases.start()
                u_cache[i] = pickle.loads(
                    uslot[i, :int(ulen[i])].tobytes())
                bcast_words += tw
                phases.stop("broadcast")

            # Depth-1 lookahead: the next pivot owner advances only its
            # pivot block before rushing to the next build; everyone
            # else brings all live blocks current.
            am_next_owner = (i + 1 < p and rank == layout.owner(i + 1))
            if am_next_owner:
                advance(i + 1, i)
            else:
                for j in my_blocks:
                    if j > i:
                        advance(j, i)

        _finish(rank, queue, t_start, phases, {
            "blocks": len(my_blocks), "steps": p - 1,
            "shift_words": shift_words,
            "shift_messages": shift_messages,
            "broadcast_words": bcast_words,
        })
    except Exception as exc:                  # noqa: BLE001 — shipped back
        _fail(rank, queue, None, exc, poison=poison)
    finally:
        _close_all(atts)


def _solve_worker(rank, nproc, tname, r_h, b_h, y_h, x_h, red_h,
                  m, p, k, layout, barrier, queue):
    """One PE of the distributed triangular-solve program.

    The real-process counterpart of
    :func:`repro.parallel.spmd_solve.triangular_solve_program`,
    generalized to ``n × k`` panels: the forward sweep folds each
    broadcast ``y_i`` into the pending sums of this PE's later columns
    with one level-3 GEMM per block row; the backward sweep reduces the
    per-PE row sums through a shared reduction scratch.  Comm counters
    (``m·k`` words per collective) mirror the simulated program.
    """
    atts = []
    try:
        _maybe_crash(rank, "spawn")
        tr = get_transport(tname)

        def att(handle):
            a = tr.attach(handle)
            atts.append(a)
            return a.array

        rp = PackedUpper(att(r_h), m * p)
        bmat = att(b_h)
        ymat, xmat = att(y_h), att(x_h)
        red = att(red_h)
        _maybe_crash(rank, "attach")
        my_cols = layout.blocks_of(rank, p)
        # Column indices of R this PE reads in the forward sweep: those
        # of my_cols[q:] are my_idx[q * m:].
        my_idx = (np.asarray(my_cols, dtype=np.intp)[:, None] * m
                  + np.arange(m)).ravel()
        phases = _Phases()
        bcast_words = reduce_words = 0
        t_start = time.perf_counter()

        def wait():
            phases.start()
            barrier.wait(timeout=_BARRIER_TIMEOUT)
            phases.stop("barrier")

        def rows(i):
            return slice(i * m, (i + 1) * m)

        def diag(i):
            return rp.block_row(i * m, m, np.arange(i * m, (i + 1) * m))

        # ---------------- forward sweep: Rᵀ y = b ---------------------
        acc = np.zeros((p, m, k))
        for i in range(p):
            if layout.owner(i) == rank:
                phases.start()
                ymat[rows(i)] = solve_upper_triangular(
                    diag(i), bmat[rows(i)] - acc[i], trans=True)
                phases.stop("solve")
            wait()
            phases.start()
            yi = ymat[rows(i)].copy()
            bcast_words += m * k
            q = bisect.bisect_right(my_cols, i)
            after = my_cols[q:]
            if after:
                upd = rp.block_row(i * m, m, my_idx[q * m:]).T @ yi
                acc[after] += upd.reshape(len(after), m, k)
            phases.stop("application")

        # ---------------- backward sweep: R x = y ---------------------
        pending = np.zeros((p, m, k))
        for i in range(p - 1, -1, -1):
            phases.start()
            red[rank] = pending[i]
            reduce_words += m * k
            phases.stop("reduce")
            wait()
            if layout.owner(i) == rank:
                phases.start()
                total = red.sum(axis=0)
                xmat[rows(i)] = solve_upper_triangular(
                    diag(i), ymat[rows(i)] - total)
                phases.stop("solve")
            wait()
            phases.start()
            bcast_words += m * k
            if i in my_cols and i > 0:
                xi = xmat[rows(i)].copy()
                upd = rp.block_column(i * m, m) @ xi
                pending[:i] += upd.reshape(i, m, k)
            phases.stop("application")

        _finish(rank, queue, t_start, phases, {
            "blocks": len(my_cols), "nrhs": k,
            "broadcast_words": bcast_words,
            "reduce_words": reduce_words,
        })
    except Exception as exc:                  # noqa: BLE001 — shipped back
        _fail(rank, queue, barrier, exc)
    finally:
        _close_all(atts)


# ----------------------------------------------------------------------
# Result objects
# ----------------------------------------------------------------------
@dataclass
class MPRun:
    """Result of one real multiprocess distributed factorization.

    ``packed`` is the gathered factor in packed storage (``None`` when
    not collected); :attr:`r` is a dense copy for callers that want one.
    """

    packed: PackedUpper | None
    nproc: int
    layout: object
    block_size: int
    num_blocks: int
    representation: str
    wall_seconds: float
    start_method: str
    #: Per-rank worker payloads (phase times, comm counters), rank order.
    workers: list[dict]
    #: Which per-step schedule ran (``"bulk"`` or ``"lookahead"``).
    schedule: str = "bulk"
    #: Transport the segments ran over.
    transport: str = "shared_memory"

    @property
    def r(self) -> np.ndarray | None:
        """Dense read-only ``R``, unpacked on first access (or ``None``)."""
        return None if self.packed is None else self.packed.dense

    @property
    def time(self) -> float:
        """Wall-clock seconds to factor (the real-machine makespan)."""
        return self.wall_seconds

    def words_by_rank(self) -> dict[int, int]:
        """Shift (put) words per rank — comparable with
        :meth:`repro.machine.simulator.MachineReport.words_by_rank`."""
        return {w["rank"]: int(w["attrs"]["shift_words"])
                for w in self.workers}

    def broadcast_words_by_rank(self) -> dict[int, int]:
        """§6.3 transform words received per rank over all steps."""
        return {w["rank"]: int(w["attrs"]["broadcast_words"])
                for w in self.workers}

    def breakdown(self) -> dict[str, float]:
        """Phase breakdown of the slowest PE (mirrors
        :meth:`~repro.parallel.driver.SimulatedRun.breakdown`)."""
        worst = max(self.workers, key=lambda w: w["end"] - w["start"])
        return dict(worst["phases"])

    def worker_spans(self) -> list[Span]:
        """Per-PE spans (fresh objects) carrying phases + counters."""
        spans = []
        for w in self.workers:
            spans.append(Span(
                name="mp.pe", start=w["start"], end=w["end"],
                attributes=dict(w["attrs"]), phases=dict(w["phases"])))
        return spans

    def to_records(self) -> list[dict]:
        """Flatten per-PE spans into the unified trace schema.

        Same record shape as the engine span exporter and the simulated
        machine's trace — ``source`` is ``"multiprocess"`` and ``rank``
        is set on every record.  The per-rank streams are interleaved
        by start time (:func:`repro.obs.export.merge_rank_traces`), so
        the output reads as one global timeline rather than rank 0's
        whole history followed by rank 1's.
        """
        return merge_rank_traces(
            span_records(sp, source=SOURCE_MULTIPROCESS)
            for sp in self.worker_spans())


@dataclass
class MPSolveRun:
    """Result of one real multiprocess distributed triangular solve."""

    x: np.ndarray
    nproc: int
    layout: object
    block_size: int
    num_blocks: int
    nrhs: int
    wall_seconds: float
    start_method: str
    #: Per-rank worker payloads (phase times, comm counters), rank order.
    workers: list[dict]
    transport: str = "shared_memory"

    @property
    def time(self) -> float:
        return self.wall_seconds

    def broadcast_words_by_rank(self) -> dict[int, int]:
        """Words received per rank from the ``y_i``/``x_i`` broadcasts —
        comparable with
        :meth:`~repro.machine.simulator.MachineReport.broadcast_words_by_rank`
        of the simulated solve."""
        return {w["rank"]: int(w["attrs"]["broadcast_words"])
                for w in self.workers}

    def reduce_words_by_rank(self) -> dict[int, int]:
        """Words contributed per rank to the backward-sweep reductions."""
        return {w["rank"]: int(w["attrs"]["reduce_words"])
                for w in self.workers}

    def breakdown(self) -> dict[str, float]:
        """Phase breakdown of the slowest PE."""
        worst = max(self.workers, key=lambda w: w["end"] - w["start"])
        return dict(worst["phases"])

    def worker_spans(self) -> list[Span]:
        spans = []
        for w in self.workers:
            spans.append(Span(
                name="mp.solve.pe", start=w["start"], end=w["end"],
                attributes=dict(w["attrs"]), phases=dict(w["phases"])))
        return spans

    def to_records(self) -> list[dict]:
        """Per-PE solve spans in the unified trace schema."""
        return merge_rank_traces(
            span_records(sp, source=SOURCE_MULTIPROCESS)
            for sp in self.worker_spans())


# ----------------------------------------------------------------------
# Drivers
# ----------------------------------------------------------------------
def _drain(queue, procs, nproc, barrier):
    """Collect one payload per rank, watching for dead workers."""
    from queue import Empty
    results: dict[int, dict] = {}
    deadline = time.monotonic() + _BARRIER_TIMEOUT
    while len(results) < nproc:
        try:
            rank, payload = queue.get(timeout=0.25)
            results[rank] = payload
            continue
        except Empty:
            pass
        dead = [pr for pr in procs if pr.exitcode not in (None, 0)]
        if dead:
            if barrier is not None:
                try:
                    barrier.abort()
                except Exception:
                    pass
            raise DistributionError(
                f"worker process(es) died with exit codes "
                f"{[pr.exitcode for pr in dead]}")
        if time.monotonic() > deadline:
            if barrier is not None:
                try:
                    barrier.abort()
                except Exception:
                    pass
            raise DistributionError(
                "multiprocess run timed out waiting for workers")
    return [results[r] for r in range(nproc)]


def _run_workers(ctx, worker, nproc, args, queue, barrier):
    """Start one worker per rank, drain payloads, join, check failures.

    Returns ``(payloads, wall_seconds)``; raises
    :class:`NotPositiveDefiniteError` on a worker-side Schur breakdown
    and :class:`DistributionError` on any other worker failure.  The
    caller's ``finally`` owns segment cleanup (via the transport
    session) — this helper only guarantees no worker outlives it.
    """
    procs = [ctx.Process(target=worker, args=(rank, nproc) + args,
                         daemon=True)
             for rank in range(nproc)]
    try:
        t0 = time.perf_counter()
        try:
            for pr in procs:
                pr.start()
        except (OSError, PermissionError) as exc:
            raise MultiprocessUnavailableError(
                f"could not start worker processes: {exc}") from exc
        payloads = _drain(queue, procs, nproc, barrier)
        wall = time.perf_counter() - t0
        for pr in procs:
            pr.join(timeout=10.0)
    finally:
        for pr in procs:
            if pr.is_alive():
                pr.terminate()
    failures = [w for w in payloads if not w.get("ok")]
    if failures:
        if any(w.get("kind") == "breakdown" for w in failures):
            raise NotPositiveDefiniteError(
                "distributed Schur breakdown: "
                + failures[0]["error"].splitlines()[0])
        raise DistributionError(
            "multiprocess worker failed:\n" + failures[0]["error"])
    return payloads, wall


def mp_factorization(t: SymmetricBlockToeplitz,
                     nproc: int | None = None, *,
                     b: float = 1,
                     plan=None,
                     layout=None,
                     representation: str | None = None,
                     collect: bool = True,
                     schedule: str | None = None,
                     transport: str | None = None) -> MPRun:
    """Factor ``t`` with real OS processes, one per PE.

    Parameters mirror
    :func:`~repro.parallel.driver.simulate_factorization`: ``b`` (or an
    explicit ``layout``) selects the paper's Version 1/2/3 distribution,
    a machine-tuned :class:`~repro.engine.SolverPlan` may supply
    ``nproc`` / ``b`` / ``representation`` / ``schedule`` /
    ``transport``, and ``collect=False`` skips gathering ``R`` (for
    timing sweeps).  ``schedule="lookahead"`` runs the Section-7
    pipelined schedule (Version 1 layout, NP ≥ 2) instead of the
    barrier-per-step bulk loop.

    Raises
    ------
    MultiprocessUnavailableError
        When the platform cannot run the backend (no shared memory, no
        semaphores, worker processes cannot start, or
        ``REPRO_MP_DISABLE`` is set).  The engine catches this and falls
        back to the simulated backend, recording the reason.
    NotPositiveDefiniteError
        When a worker hits a Schur breakdown (the matrix is not SPD) —
        so the engine's armed indefinite fallback takes over exactly as
        in the serial path.
    """
    if plan is not None:
        if nproc is None:
            nproc = plan.nproc
        if layout is None and plan.distribution_b is not None:
            b = plan.distribution_b
        if representation is None:
            representation = plan.representation
        if schedule is None:
            schedule = getattr(plan, "schedule", "bulk")
        if transport is None:
            transport = getattr(plan, "transport", "shared_memory")
    representation = representation or "vy2"
    schedule = schedule or "bulk"
    transport = transport or "shared_memory"
    if nproc is None:
        raise DistributionError(
            "nproc is required (directly or through a SolverPlan)")
    if schedule not in SCHEDULES:
        raise DistributionError(
            f"unknown schedule {schedule!r}; expected one of {SCHEDULES}")
    ok, reason = multiprocess_available(transport=transport)
    if not ok:
        raise MultiprocessUnavailableError(reason)
    if layout is None:
        layout = make_layout(nproc, b=b)
    lookahead = schedule == "lookahead"
    if lookahead:
        if not (isinstance(layout, BlockCyclicLayout)
                and layout.group_size == 1):
            raise DistributionError(
                "lookahead is implemented for the Version 1 layout")
        if nproc < 2:
            raise DistributionError("lookahead needs at least 2 PEs")
    elif isinstance(layout, BlockCyclicLayout):
        pass
    elif not isinstance(layout, SpreadLayout):
        raise DistributionError(f"unknown layout {layout!r}")

    g = spd_generator(t)              # NotPositiveDefiniteError up front
    m, p = g.block_size, g.num_blocks
    n = m * p
    if p < 2:
        raise ShapeError("need at least 2 block columns to factor")
    if isinstance(layout, SpreadLayout):
        layout.chunk_width(m)         # validates m % spread == 0
        if not np.all(g.w[:m] == 1):
            raise DistributionError(
                "the spread (Version 3) program supports the SPD "
                "signature only")

    tr = get_transport(transport)
    ctx = tr.context()
    barrier = None
    with tr.session() as sess:
        try:
            gen_arr, gen_h = sess.ndarray(g.gen.shape)
            r_h = None
            if collect:
                r_seg, r_h = sess.ndarray((packed_size(n),))
            if not lookahead:
                barrier = sess.barrier(nproc)
            queue = sess.queue()
        except (OSError, PermissionError, ValueError) as exc:
            raise MultiprocessUnavailableError(
                f"could not allocate shared resources: {exc}") from exc
        gen_arr[:] = g.gen

        if lookahead:
            ups, ups_h = sess.ndarray((p, p, m, m))
            upflag, upflag_h = sess.ndarray((p, p), dtype=np.int64)
            piv, piv_h = sess.ndarray((p, m, m))
            pivflag, pivflag_h = sess.ndarray((p,), dtype=np.int64)
            uslot, uslot_h = sess.ndarray((p, _u_slot_bytes(m)),
                                          dtype=np.uint8)
            ulen, ulen_h = sess.ndarray((p,), dtype=np.int64)
            poison, poison_h = sess.ndarray((1,), dtype=np.int64)
            args = (transport, gen_h, r_h, ups_h, upflag_h, piv_h,
                    pivflag_h, uslot_h, ulen_h, poison_h, m, p, g.w,
                    layout, representation, collect, queue)
            worker = _lookahead_worker
        else:
            args = (transport, gen_h, r_h, m, p, g.w, layout,
                    representation, collect, barrier, queue)
            worker = (_block_cyclic_worker
                      if isinstance(layout, BlockCyclicLayout)
                      else _spread_worker)

        payloads, wall = _run_workers(ctx, worker, nproc, args, queue,
                                      barrier)

        packed = PackedUpper(np.array(r_seg), n) if collect else None
        run = MPRun(packed=packed, nproc=nproc, layout=layout, block_size=m,
                    num_blocks=p, representation=representation,
                    wall_seconds=wall,
                    start_method=ctx.get_start_method(),
                    workers=sorted(payloads, key=lambda w: w["rank"]),
                    schedule=schedule, transport=transport)
    _publish_factor_obs(run)
    return run


def _publish_factor_obs(run: MPRun) -> None:
    if not obs.enabled():
        return
    for sp in run.worker_spans():
        obs.adopt_span(sp)
    reg = obs.default_registry()
    reg.counter(
        "repro_mp_runs_total",
        "Real multiprocess distributed factorizations completed"
    ).inc(1, version=str(run.layout.version), nproc=str(run.nproc),
          schedule=run.schedule)
    reg.counter(
        "repro_mp_comm_words_total",
        "Words moved by the multiprocess backend, by kind"
    ).inc(sum(run.words_by_rank().values()), kind="shift")
    reg.counter(
        "repro_mp_comm_words_total",
        "Words moved by the multiprocess backend, by kind"
    ).inc(sum(run.broadcast_words_by_rank().values()),
          kind="broadcast")


def mp_triangular_solve(r: PackedUpper | np.ndarray, layout,
                        b: np.ndarray, *, block_size: int,
                        transport: str = "shared_memory"
                        ) -> MPSolveRun:
    """Solve ``RᵀR x = b`` with the factor column-distributed over
    real worker processes.

    ``r`` is the gathered upper-triangular factor, packed
    (:class:`~repro.core.packed.PackedUpper`) or dense; the workers
    share it in packed form, each PE reading only the columns the
    Versions-1/2 ``layout`` assigns it.  ``b`` may be
    a vector or an ``n × k`` panel — the per-PE sweeps are level-3
    either way.  Returns the solution plus per-PE spans and comm
    counters in exact parity with the simulated
    :func:`~repro.parallel.spmd_solve.triangular_solve_program`.
    """
    if not isinstance(layout, BlockCyclicLayout):
        raise DistributionError(
            "the distributed solve supports Versions 1/2 "
            "(whole block columns)")
    ok, reason = multiprocess_available(transport=transport)
    if not ok:
        raise MultiprocessUnavailableError(reason)
    n = r.n if isinstance(r, PackedUpper) else r.shape[0]
    m = int(block_size)
    if n % m != 0:
        raise ShapeError(f"factor order {n} not a multiple of m={m}")
    p = n // m
    b = np.asarray(b, dtype=np.float64)
    single = b.ndim == 1
    panel = b[:, None] if single else b
    if panel.shape[0] != n:
        raise ShapeError(
            f"b has {panel.shape[0]} rows, expected {n}")
    k = panel.shape[1]
    nproc = layout.nproc

    tr = get_transport(transport)
    ctx = tr.context()
    with tr.session() as sess:
        try:
            r_seg, r_h = sess.ndarray((packed_size(n),))
            b_arr, b_h = sess.ndarray((n, k))
            _y_arr, y_h = sess.ndarray((n, k))
            x_arr, x_h = sess.ndarray((n, k))
            _red, red_h = sess.ndarray((nproc, m, k))
            barrier = sess.barrier(nproc)
            queue = sess.queue()
        except (OSError, PermissionError, ValueError) as exc:
            raise MultiprocessUnavailableError(
                f"could not allocate shared resources: {exc}") from exc
        if isinstance(r, PackedUpper):
            r_seg[:] = r.data
        else:
            PackedUpper(r_seg, n).write_rows(0, np.asarray(r))
        b_arr[:] = panel

        args = (transport, r_h, b_h, y_h, x_h, red_h, m, p, k, layout,
                barrier, queue)
        payloads, wall = _run_workers(ctx, _solve_worker, nproc, args,
                                      queue, barrier)
        x = np.array(x_arr)

    run = MPSolveRun(x=x[:, 0] if single else x, nproc=nproc,
                     layout=layout, block_size=m, num_blocks=p, nrhs=k,
                     wall_seconds=wall,
                     start_method=ctx.get_start_method(),
                     workers=sorted(payloads, key=lambda w: w["rank"]),
                     transport=transport)
    if obs.enabled():
        for sp in run.worker_spans():
            obs.adopt_span(sp)
        reg = obs.default_registry()
        reg.counter(
            "repro_mp_solves_total",
            "Real multiprocess distributed triangular solves completed"
        ).inc(1, nproc=str(nproc))
        reg.counter(
            "repro_mp_comm_words_total",
            "Words moved by the multiprocess backend, by kind"
        ).inc(sum(run.broadcast_words_by_rank().values()),
              kind="solve_broadcast")
        reg.counter(
            "repro_mp_comm_words_total",
            "Words moved by the multiprocess backend, by kind"
        ).inc(sum(run.reduce_words_by_rank().values()),
              kind="solve_reduce")
    return run
