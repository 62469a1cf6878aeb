"""Real multiprocess SPMD backend for the distributed block Schur
algorithm.

Where :mod:`repro.parallel.driver` runs the paper's Section-7 programs on
the *simulated* T3D, this module runs them for real: one OS process per
PE, the ``2m × mp`` generator and the packed factor in shared segments
(the stand-in for the T3D's globally addressable memory, created through
:mod:`repro.parallel.transport`), and the same three data distributions
deciding which PE owns which block columns (Versions 1/2) or column
chunks (Version 3).

One program, two executors.  The bulk factorization
(:func:`~repro.parallel.spmd.block_cyclic_program`,
:func:`~repro.parallel.spmd.spread_program`) and the triangular solve
(:func:`~repro.parallel.spmd_solve.triangular_solve_program`) are the
simulator's own generator programs; each worker process runs its rank's
program and *interprets* the ops it yields:

* ``Put``/``Recv`` — one single-writer, single-reader byte ring per
  ordered rank pair, all in one shared segment.  A record carries the
  tag and the payload, pickled with its arrays out of band (raw bytes).
  A ``Recv`` parks messages that arrive out of order in a per-rank
  mailbox keyed by ``(src, tag)``, as the simulator does; a ``Put`` to
  one's own rank goes straight to that mailbox;
* ``Broadcast``/``Reduce`` — puts from the root / to the root (which
  sums, ``None`` counting as zero);
* ``Barrier`` — the shared process barrier;
* ``Compute`` — nothing (the work already ran); it only closes a phase.

Every wait — for a message, for ring space — is the one wait loop
(:func:`_wait`): it drains the rank's inbound rings, so a full ring
cannot deadlock, and it honours the poison flag and the timeout.  The
programs write their blocks of ``R`` (and of the solution ``x``) straight
into the shared segments, so nothing is gathered afterwards.

The Section-7 **lookahead** schedule is the one hand port left
(:func:`_lookahead_worker`, see its docstring for why).

Counters come from the ops, by the simulator's rules (shift words
``Σ Put.words``, messages ``Σ max(1, Put.count)``, broadcast words
``Σ Broadcast.words``, reduce words ``Σ Reduce.words``), so a real run
and a simulated run of the same plan count the same traffic — see
:meth:`~repro.machine.simulator.MachineReport.words_by_rank` and
:meth:`~repro.machine.simulator.MachineReport.broadcast_words_by_rank`.

Phases.  Time blocked in a collective (``Broadcast``, ``Reduce``,
``Barrier``) is ``barrier``; time blocked on a ``Recv`` is ``wait``; all
other time since the previous op goes to the category of the op that
ends it (``shift`` for a ``Recv``).  Workers ship the phase times back
over a queue; the parent reconstructs per-PE spans that merge into the
observability pipeline (:func:`repro.obs.adopt_span`, the unified JSONL
schema with the ``rank`` field set).

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

import math
import os
import pickle
import struct
import time
import traceback
from collections import deque
from dataclasses import dataclass
from threading import BrokenBarrierError
from types import SimpleNamespace

import numpy as np

import repro.obs as obs
from repro.core.generator import spd_generator
from repro.core.packed import PackedUpper, packed_size
from repro.core.schur_spd import eliminate_block
from repro.errors import (
    BreakdownError,
    DistributionError,
    MultiprocessUnavailableError,
    NotPositiveDefiniteError,
    ShapeError,
)
from repro.machine.ops import Barrier, Broadcast, Compute, Put, Recv, Reduce
from repro.obs.export import merge_rank_traces, span_records
from repro.obs.schema import SOURCE_MULTIPROCESS
from repro.obs.spans import Span
from repro.parallel import costs, transport
from repro.parallel.distributions import (
    BlockCyclicLayout,
    SpreadLayout,
    make_layout,
)
from repro.parallel.spmd import (
    block_cyclic_program,
    column_index,
    spread_program,
)
from repro.parallel.spmd_solve import triangular_solve_program
from repro.parallel.transport import SegmentHandle
from repro.toeplitz.block_toeplitz import SymmetricBlockToeplitz
from repro.utils.lintools import as_panel, from_panel

__all__ = [
    "MPRun",
    "MPSolveRun",
    "mp_factorization",
    "mp_triangular_solve",
    "multiprocess_available",
    "SCHEDULES",
]

#: Seconds a worker waits (at a barrier, for a message or on a
#: lookahead slot) before declaring the run wedged.
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
def multiprocess_available(*, refresh: bool = False) -> tuple[bool, str]:
    """Whether the real multiprocess backend can run here.

    Returns ``(ok, reason)``; ``reason`` explains a ``False`` (it is the
    string the engine records when it falls back to simulation).  The
    platform probe — can this host create shared segments and
    semaphores? — is cached; ``REPRO_MP_DISABLE`` (any truthy value)
    short-circuits it, which is also the tested fallback path.
    """
    if os.environ.get("REPRO_MP_DISABLE", "").lower() not in \
            ("", "0", "false"):
        return False, "disabled by REPRO_MP_DISABLE"
    return transport.probe(refresh=refresh)


# ----------------------------------------------------------------------
# Worker plumbing (module level: importable under the spawn method)
# ----------------------------------------------------------------------
class _Phases:
    """Phase-time accumulator.  ``stop(name)`` books the time since the
    last mark to ``name`` and sets a new mark; ``start()`` only marks.
    (perf_counter is monotonic and — on Linux — shares its epoch across
    processes, so parent-side span rendering lines the workers up.)"""

    __slots__ = ("acc", "_t0")

    def __init__(self):
        self.acc: dict[str, float] = {}
        self._t0 = time.perf_counter()

    def start(self):
        self._t0 = time.perf_counter()

    def stop(self, name: str):
        now = time.perf_counter()
        self.acc[name] = self.acc.get(name, 0.0) + (now - self._t0)
        self._t0 = now


def _maybe_crash(rank: int, stage: str) -> None:
    """Crash-injection hook: ``REPRO_MP_CRASH=rank:stage`` makes that
    worker die hard (``os._exit``) at the named stage — before attaching
    (``spawn``), after attaching but before any synchronization
    (``attach``), or right after its first communication (``step``).
    Exercises the parent's segment-cleanup guarantees."""
    if os.environ.get("REPRO_MP_CRASH", "") == f"{rank}:{stage}":
        os._exit(3)


class _PeerAborted(DistributionError):
    """A wait released by a peer's failure (the poison flag)."""


def _wait(ready, poison, what: str, drain=None) -> None:
    """The one wait loop: return once ``ready()`` holds.

    ``drain`` (the executor's inbound-ring reader) runs before every
    check.  A handful of ``time.sleep(0)`` yields catches what is about
    to land, then the wait escalates to short real sleeps: the waiter is
    blocked on a *peer's* compute, so burning its timeslice on
    sched_yield churn (hundreds of µs per wait on an oversubscribed
    host) only slows the rank it is waiting for.  ``poison`` releases
    every waiter when a peer fails.  Payload visibility relies on the
    x86-TSO store order of the data-before-flag (or data-before-head)
    writes; the parity tests would catch a platform where that
    assumption breaks.
    """
    deadline = None
    spins = 0
    while True:
        if drain is not None:
            drain()
        if ready():
            return
        if poison[0]:
            raise _PeerAborted(f"peer aborted while waiting for {what}")
        if deadline is None:
            deadline = time.monotonic() + _BARRIER_TIMEOUT
        elif time.monotonic() > deadline:
            raise DistributionError(f"timed out waiting for {what}")
        spins += 1
        time.sleep(0 if spins < 16 else 0.0001)


class _WorkerScope:
    """Entry and exit of one worker process.

    Entering fires the ``spawn`` crash hook; :meth:`attach` maps
    segments (detached again on exit, whatever happens);
    :meth:`finish` ships the payload back.  An exception is shipped back
    instead — ``breakdown`` for a Schur breakdown, ``aborted`` for a
    wake-up caused by a peer's failure (a broken barrier or a poisoned
    wait) — after the poison flag is raised and the barrier aborted, so
    peers stop waiting.
    """

    def __init__(self, rank: int, queue, barrier=None):
        self.rank = rank
        self.queue = queue
        self.barrier = barrier
        self.poison = None
        self._atts: list = []

    def __enter__(self) -> "_WorkerScope":
        _maybe_crash(self.rank, "spawn")
        return self

    def attach(self, handle: SegmentHandle) -> np.ndarray:
        att = transport.attach(handle)
        self._atts.append(att)
        return att.array

    def finish(self, t_start: float, phases: _Phases, attrs: dict) -> None:
        self.queue.put((self.rank, {
            "ok": True, "rank": self.rank,
            "start": t_start, "end": time.perf_counter(),
            "phases": phases.acc, "attrs": dict(attrs, rank=self.rank),
        }))

    def __exit__(self, etype, exc, tb) -> bool:
        try:
            if isinstance(exc, Exception):
                self._fail(exc, tb)
        finally:
            for att in self._atts:
                att.close()
        return isinstance(exc, Exception)    # reported, not re-raised

    def _fail(self, exc: Exception, tb) -> None:
        if isinstance(exc, (BreakdownError, NotPositiveDefiniteError)):
            kind = "breakdown"
        elif isinstance(exc, (BrokenBarrierError, _PeerAborted)):
            kind = "aborted"
        else:
            kind = "error"
        if self.poison is not None:
            try:
                self.poison[0] = 1      # release peers in _wait
            except Exception:
                pass
        if self.barrier is not None:
            try:
                self.barrier.abort()    # release peers parked on it
            except Exception:
                pass
        detail = "".join(traceback.format_exception(type(exc), exc, tb))
        self.queue.put((self.rank, {"ok": False, "kind": kind,
                                    "error": f"{exc}\n{detail}"}))


# ----------------------------------------------------------------------
# The op executor
# ----------------------------------------------------------------------
#: int64 words of control per ring: the writer's head (bytes written)
#: at [0], the reader's tail (bytes consumed) at [8], a cache line apart.
#: One more row at the end holds the poison flag.
_CTL = 16


def _ring_bytes(words: int, m: int) -> int:
    """Bytes per ring: room for two of the largest records a program
    sends in one step — ``words`` float64 words of payload, or a block
    transform (``O(m²)`` words, pickled) — plus their framing."""
    return 2 * (8 * words + 64 * m * m + 4096)


def _largest_shift(layout, m: int, p: int) -> int:
    """Words of the largest shift a PE sends: all its upper rows."""
    if isinstance(layout, SpreadLayout):
        most = max(len(layout.chunks_of(r, p)) for r in range(layout.nproc))
        return most * m * layout.chunk_width(m)
    most = max(len(layout.blocks_of(r, p)) for r in range(layout.nproc))
    return most * m * m


def _comm_segment(sess, nproc: int, ring: int) -> SegmentHandle:
    """One shared segment holding every ring of an ``nproc``-PE run."""
    ring += -ring % 8
    ctl_bytes = (nproc * nproc + 1) * _CTL * 8
    _arr, handle = sess.ndarray((ctl_bytes + nproc * nproc * ring,),
                                dtype=np.uint8)
    return handle


def _padded(data: bytes) -> bytes:
    return data + bytes(-len(data) % 8)


def _record(tag, payload) -> bytes:
    """Frame one message: a header (total bytes, tag bytes, the array's
    rank or ``-1``, its shape), the pickled tag, then the payload — a
    float64 array as its raw bytes, anything else pickled.  Parts are
    padded to 8 bytes, so records and arrays stay aligned."""
    tag_bytes = pickle.dumps(tag)
    if type(payload) is np.ndarray and payload.dtype == np.float64:
        ndim, dims, body = payload.ndim, payload.shape, payload.tobytes()
    else:
        ndim, dims, body = -1, (), pickle.dumps(payload, protocol=5)
    rest = _padded(tag_bytes) + _padded(body)
    return struct.pack(f"3q{len(dims)}q", 8 * (3 + len(dims)) + len(rest),
                       len(tag_bytes), ndim, *dims) + rest


def _parse(buf: np.ndarray):
    """Undo :func:`_record`; an array payload shares ``buf`` (a private
    copy of the record)."""
    _total, tag_len, ndim = struct.unpack_from("3q", buf)
    dims = struct.unpack_from(f"{max(ndim, 0)}q", buf, 24)
    at = 24 + 8 * len(dims)
    view = memoryview(buf)
    tag = pickle.loads(view[at:at + tag_len])
    at += tag_len + (-tag_len % 8)
    if ndim < 0:
        return tag, pickle.loads(view[at:])   # ignores the padding
    return tag, np.frombuffer(buf, np.float64, math.prod(dims),
                              at).reshape(dims)


class _Executor:
    """Runs one rank of a simulator program on a real process."""

    def __init__(self, rank: int, nproc: int, segment: np.ndarray, barrier):
        self.rank = rank
        self.nproc = nproc
        self.barrier = barrier
        ctl_bytes = (nproc * nproc + 1) * _CTL * 8
        ctl = segment[:ctl_bytes].view(np.int64).reshape(-1, _CTL)
        #: ctl[src, dst] — the control words of ring src → dst.
        self.ctl = ctl[:-1].reshape(nproc, nproc, _CTL)
        self.poison = ctl[-1]
        self.rings = segment[ctl_bytes:].reshape(nproc, nproc, -1)
        self.cap = self.rings.shape[2]
        self.mailbox: dict[tuple, deque] = {}
        self.phases = _Phases()
        self.counts = {"shift_words": 0, "shift_messages": 0,
                       "broadcast_words": 0, "reduce_words": 0}
        self._collectives = 0

    # -- the interpreter ------------------------------------------------
    def run(self, program, **kwargs):
        # Meet before the program starts: the workers' start-up skew is
        # booked once, as ``barrier``, not to whichever op first waits
        # on a peer that is still starting.
        self.phases.start()
        self._barrier(Barrier())
        ctx = SimpleNamespace(rank=self.rank, nproc=self.nproc)
        gen = program(ctx, **kwargs)
        handlers = {Put: self._put, Recv: self._recv,
                    Broadcast: self._broadcast, Reduce: self._reduce,
                    Barrier: self._barrier}
        value = None
        crash_hook = True
        while True:
            try:
                op = gen.send(value)
            except StopIteration as stop:
                return stop.value
            if type(op) is Compute:
                self.phases.stop(op.category)
                value = None
                continue
            try:
                handler = handlers[type(op)]
            except KeyError:
                raise DistributionError(f"unknown operation {op!r}") \
                    from None
            value = handler(op)
            if crash_hook:
                _maybe_crash(self.rank, "step")
                crash_hook = False

    def _put(self, op: Put):
        self.counts["shift_words"] += op.words
        self.counts["shift_messages"] += max(1, op.count)
        self._send(op.dest, op.tag, op.payload)
        self.phases.stop(op.category)

    def _recv(self, op: Recv):
        self.phases.stop("shift")
        return self._take(op.src, op.tag, "wait")

    def _broadcast(self, op: Broadcast):
        self.phases.stop(op.category)
        tag = self._collective_tag()
        self.counts["broadcast_words"] += op.words
        if self.rank == op.root:
            rec = _record(tag, op.payload)
            for dest in range(self.nproc):
                if dest != self.rank:
                    self._write(dest, rec)
            value = op.payload
        else:
            value = self._take(op.root, tag, "barrier")
        self.phases.stop(op.category)
        return value

    def _reduce(self, op: Reduce):
        self.phases.stop(op.category)
        tag = self._collective_tag()
        self.counts["reduce_words"] += op.words
        total = None
        if self.rank != op.root:
            self._send(op.root, tag, op.payload)
        else:
            if op.payload is not None:
                total = np.array(op.payload)
            for src in range(self.nproc):
                if src != self.rank:
                    part = self._take(src, tag, "barrier")
                    if part is not None:
                        total = part if total is None else total + part
        self.phases.stop(op.category)
        return total

    def _barrier(self, op: Barrier):
        self.phases.stop(op.category)
        self.barrier.wait(timeout=_BARRIER_TIMEOUT)
        self.phases.stop("barrier")

    def _collective_tag(self) -> tuple:
        # Every rank meets the same collectives in the same order.
        self._collectives += 1
        return ("collective", self._collectives)

    # -- messages -------------------------------------------------------
    def _send(self, dest: int, tag, payload) -> None:
        if dest == self.rank:
            self.mailbox.setdefault((dest, tag), deque()).append(payload)
        elif not 0 <= dest < self.nproc:
            raise DistributionError(f"put to invalid rank {dest}")
        else:
            self._write(dest, _record(tag, payload))

    def _write(self, dest: int, rec: bytes) -> None:
        size = len(rec)
        if size > self.cap:
            raise DistributionError(
                f"message of {size} B exceeds the {self.cap} B ring")
        ctl = self.ctl[self.rank, dest]
        head = int(ctl[0])
        if self.cap - (head - int(ctl[8])) < size:
            _wait(lambda: self.cap - (head - int(ctl[8])) >= size,
                  self.poison, f"ring space to rank {dest}", self._drain)
        ring = self.rings[self.rank, dest]
        data = np.frombuffer(rec, np.uint8)
        at = head % self.cap
        first = min(size, self.cap - at)
        ring[at:at + first] = data[:first]
        ring[:size - first] = data[first:]
        ctl[0] = head + size

    def _drain(self) -> None:
        """Move every record waiting in this rank's inbound rings into
        the mailbox."""
        for src in range(self.nproc):
            if src == self.rank:
                continue
            ctl = self.ctl[src, self.rank]
            tail = int(ctl[8])
            if int(ctl[0]) == tail:
                continue
            ring = self.rings[src, self.rank]
            while int(ctl[0]) > tail:
                at = tail % self.cap
                size = int(ring[at:at + 8].view(np.int64)[0])
                first = min(size, self.cap - at)
                buf = np.empty(size, np.uint8)
                buf[:first] = ring[at:at + first]
                buf[first:] = ring[:size - first]
                tag, payload = _parse(buf)
                self.mailbox.setdefault((src, tag), deque()).append(payload)
                tail += size
                ctl[8] = tail

    def _take(self, src: int, tag, blocked: str):
        """The next message from ``src`` with ``tag``; time spent
        blocked for it is booked to ``blocked``."""
        key = (src, tag)
        if key not in self.mailbox:
            _wait(lambda: key in self.mailbox, self.poison,
                  f"{tag!r} from rank {src}", self._drain)
            self.phases.stop(blocked)
        box = self.mailbox[key]
        value = box.popleft()
        if not box:
            del self.mailbox[key]
        return value


def _program_worker(rank, nproc, program, kwargs, comm_h, barrier, queue):
    """One PE running a simulator program under :class:`_Executor`.

    ``kwargs`` are the program's keyword arguments, with segment
    handles for the shared arrays; ``packed`` is wrapped as the
    order-``m·p`` :class:`~repro.core.packed.PackedUpper` it holds.
    """
    with _WorkerScope(rank, queue, barrier) as scope:
        args = {key: scope.attach(v) if isinstance(v, SegmentHandle) else v
                for key, v in kwargs.items()}
        if args.get("packed") is not None:
            args["packed"] = PackedUpper(args["packed"],
                                         args["m"] * args["p"])
        executor = _Executor(rank, nproc, scope.attach(comm_h), barrier)
        scope.poison = executor.poison
        _maybe_crash(rank, "attach")
        t_start = time.perf_counter()
        executor.run(program, **args)
        scope.finish(t_start, executor.phases, executor.counts)


# ----------------------------------------------------------------------
# The lookahead port
# ----------------------------------------------------------------------
def _lookahead_worker(rank, nproc, gen_h, r_h, ups_h, upflag_h, piv_h,
                      pivflag_h, uslot_h, ulen_h, poison_h, m, p, w, layout,
                      representation, queue):
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

    Why a port and not the program under :class:`_Executor`: the
    schedule works block by block — about 16k block-steps per rank at
    n = 1024, m = 4, NP = 2, each a ``Recv``, a ``Compute`` and a
    ``Put`` of one ``m × m`` block — so the generator, op and framing
    work per block-step adds up.  Interpreted over the rings, that
    factor took 1,221–1,889 ms against 718–795 ms for this port in the
    same runs (four pairs, bitwise-equal ``R``, equal shift words); a
    variant over tag-addressed shared slots with slotted op classes
    still read 860–905 against 757–784 ms (2-vCPU host, one BLAS
    thread).
    """
    with _WorkerScope(rank, queue) as scope:
        gen = scope.attach(gen_h)
        poison = scope.poison = scope.attach(poison_h)
        _maybe_crash(rank, "attach")
        ups, upflag = scope.attach(ups_h), scope.attach(upflag_h)
        piv, pivflag = scope.attach(piv_h), scope.attach(pivflag_h)
        uslot, ulen = scope.attach(uslot_h), scope.attach(ulen_h)
        r = None if r_h is None else PackedUpper(scope.attach(r_h), m * p)

        my_blocks = layout.blocks_of(rank, p)
        # Private working copy of this PE's block columns (the shared
        # generator segment is read-only input).
        data = gen[:, column_index([j * m for j in my_blocks], m)]
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

        def wait_for(flags, idx, what):
            if not flags[idx]:
                phases.start()
                _wait(lambda: flags[idx], poison, what)
                phases.stop("wait")

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
                wait_for(upflag[s], j, f"up({s},{j})")
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
                if r is not None:
                    phases.start()
                    r.write_block(s * m, j * m, upper(j))
                    phases.stop("gather")

        if r is not None:
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
        _maybe_crash(rank, "step")

        slot = uslot.shape[1]
        for i in range(1, p):
            pivot_owner = layout.owner(i)
            if rank == pivot_owner:
                advance(i, i - 1)
                wait_for(pivflag, i, f"pivot({i})")
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
                if r is not None:
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
                wait_for(ulen, i, f"U({i})")
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

        scope.finish(t_start, phases, {
            "shift_words": shift_words,
            "shift_messages": shift_messages,
            "broadcast_words": bcast_words,
        })


# ----------------------------------------------------------------------
# Result objects
# ----------------------------------------------------------------------
class _WorkerRun:
    """What the two run records share: per-rank worker payloads (phase
    times and comm counters, rank order) read back as counters, the
    slowest PE's phases, and per-PE spans."""

    #: Span name of one PE's record.
    span_name = "mp.pe"

    @property
    def time(self) -> float:
        """Wall-clock seconds (the real-machine makespan)."""
        return self.wall_seconds

    def _counter(self, key: str) -> dict[int, int]:
        return {w["rank"]: int(w["attrs"][key]) for w in self.workers}

    def broadcast_words_by_rank(self) -> dict[int, int]:
        """Broadcast words received per rank — comparable with
        :meth:`~repro.machine.simulator.MachineReport.broadcast_words_by_rank`
        of the simulated run."""
        return self._counter("broadcast_words")

    def breakdown(self) -> dict[str, float]:
        """Phase breakdown of the slowest PE (mirrors
        :meth:`~repro.parallel.driver.SimulatedRun.breakdown`)."""
        worst = max(self.workers, key=lambda w: w["end"] - w["start"])
        return dict(worst["phases"])

    def worker_spans(self) -> list[Span]:
        """Per-PE spans (fresh objects) carrying phases + counters."""
        return [Span(name=self.span_name, start=w["start"], end=w["end"],
                     attributes=dict(w["attrs"]), phases=dict(w["phases"]))
                for w in self.workers]

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

    def _publish(self, runs: str, help_text: str, labels: dict,
                 words: dict[str, int]) -> None:
        """Adopt the per-PE spans and count the run and its words."""
        if not obs.enabled():
            return
        for sp in self.worker_spans():
            obs.adopt_span(sp)
        reg = obs.default_registry()
        reg.counter(runs, help_text).inc(1, **labels)
        for kind, total in words.items():
            reg.counter(
                "repro_mp_comm_words_total",
                "Words moved by the multiprocess backend, by kind"
            ).inc(total, kind=kind)


@dataclass
class MPRun(_WorkerRun):
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

    @property
    def r(self) -> np.ndarray | None:
        """Dense read-only ``R``, unpacked on first access (or ``None``)."""
        return None if self.packed is None else self.packed.dense

    def words_by_rank(self) -> dict[int, int]:
        """Shift (put) words per rank — comparable with
        :meth:`repro.machine.simulator.MachineReport.words_by_rank`."""
        return self._counter("shift_words")


@dataclass
class MPSolveRun(_WorkerRun):
    """Result of one real multiprocess distributed triangular solve."""

    span_name = "mp.solve.pe"

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

    def reduce_words_by_rank(self) -> dict[int, int]:
        """Words contributed per rank to the backward-sweep reductions."""
        return self._counter("reduce_words")


# ----------------------------------------------------------------------
# Drivers
# ----------------------------------------------------------------------
def _collect(queue, procs, nproc, barrier):
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
        dead = [pr.exitcode for pr in procs
                if pr.exitcode not in (None, 0)]
        if dead or time.monotonic() > deadline:
            if barrier is not None:
                try:
                    barrier.abort()
                except Exception:
                    pass
            raise DistributionError(
                f"worker process(es) died with exit codes {dead}" if dead
                else "multiprocess run timed out waiting for workers")
    return [results[r] for r in range(nproc)]


def _run_workers(ctx, worker, nproc, args, queue, barrier):
    """Start one worker per rank, drain payloads, join, check failures.

    Returns ``(payloads, wall_seconds)``; raises
    :class:`NotPositiveDefiniteError` on a worker-side Schur breakdown
    and :class:`DistributionError` on any other worker failure.  A
    failing worker wakes its peers (poisoned waits, an aborted barrier)
    and they fail too, so the failure reported is the lowest-rank one
    that is not such a wake-up.  The caller's ``finally`` owns segment
    cleanup (via the transport session) — this helper only guarantees
    no worker outlives it.
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
        payloads = _collect(queue, procs, nproc, barrier)
        wall = time.perf_counter() - t0
        for pr in procs:
            pr.join(timeout=10.0)
    finally:
        for pr in procs:
            if pr.is_alive():
                pr.terminate()
    failures = [w for w in payloads if not w.get("ok")]
    if failures:
        cause = min(failures, key=lambda w: w.get("kind") == "aborted")
        if cause.get("kind") == "breakdown":
            raise NotPositiveDefiniteError(
                "distributed Schur breakdown: "
                + cause["error"].splitlines()[0])
        raise DistributionError(
            "multiprocess worker failed:\n" + cause["error"])
    return sorted(payloads, key=lambda w: w["rank"]), wall


def mp_factorization(t: SymmetricBlockToeplitz,
                     nproc: int | None = None, *,
                     b: float = 1,
                     plan=None,
                     layout=None,
                     representation: str | None = None,
                     collect: bool = True,
                     schedule: str | None = None) -> MPRun:
    """Factor ``t`` with real OS processes, one per PE.

    Parameters mirror
    :func:`~repro.parallel.driver.simulate_factorization`: ``b`` (or an
    explicit ``layout``) selects the paper's Version 1/2/3 distribution,
    a machine-tuned :class:`~repro.engine.SolverPlan` may supply
    ``nproc`` / ``b`` / ``representation`` / ``schedule``, and
    ``collect=False`` skips writing ``R`` (for
    timing sweeps).  ``schedule="lookahead"`` runs the Section-7
    pipelined schedule (Version 1 layout, NP ≥ 2) instead of the
    barrier-per-step bulk program.

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
    representation = representation or "vy2"
    schedule = schedule or "bulk"
    if nproc is None:
        raise DistributionError(
            "nproc is required (directly or through a SolverPlan)")
    if schedule not in SCHEDULES:
        raise DistributionError(
            f"unknown schedule {schedule!r}; expected one of {SCHEDULES}")
    ok, reason = multiprocess_available()
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
    elif not isinstance(layout, (BlockCyclicLayout, SpreadLayout)):
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

    ctx = transport.context()
    barrier = None
    with transport.session() as sess:
        try:
            gen_arr, gen_h = sess.ndarray(g.gen.shape)
            r_seg, r_h = (sess.ndarray((packed_size(n),)) if collect
                          else (None, None))
            if not lookahead:
                barrier = sess.barrier(nproc)
                comm_h = _comm_segment(
                    sess, nproc, _ring_bytes(_largest_shift(layout, m, p), m))
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
            args = (gen_h, r_h, ups_h, upflag_h, piv_h, pivflag_h,
                    uslot_h, ulen_h, poison_h, m, p, g.w, layout,
                    representation, queue)
            worker = _lookahead_worker
        else:
            program = (block_cyclic_program
                       if isinstance(layout, BlockCyclicLayout)
                       else spread_program)
            kwargs = dict(layout=layout, m=m, p=p, w=g.w, gen=gen_h,
                          representation=representation, packed=r_h)
            args = (program, kwargs, comm_h, barrier, queue)
            worker = _program_worker

        payloads, wall = _run_workers(ctx, worker, nproc, args, queue,
                                      barrier)

        packed = None
        if collect:
            packed = PackedUpper.zeros(n)
            packed.data[:] = r_seg
        run = MPRun(packed=packed, nproc=nproc, layout=layout, block_size=m,
                    num_blocks=p, representation=representation,
                    wall_seconds=wall,
                    start_method=ctx.get_start_method(),
                    workers=payloads, schedule=schedule)
    run._publish(
        "repro_mp_runs_total",
        "Real multiprocess distributed factorizations completed",
        dict(version=str(layout.version), nproc=str(nproc),
             schedule=schedule),
        {"shift": sum(run.words_by_rank().values()),
         "broadcast": sum(run.broadcast_words_by_rank().values())})
    return run


def mp_triangular_solve(r: PackedUpper | np.ndarray, layout,
                        b: np.ndarray, *, block_size: int) -> MPSolveRun:
    """Solve ``RᵀR x = b`` with the factor column-distributed over
    real worker processes.

    ``r`` is the upper-triangular factor, packed
    (:class:`~repro.core.packed.PackedUpper`) or dense; the workers
    share it in packed form and run
    :func:`~repro.parallel.spmd_solve.triangular_solve_program`, each PE
    reading only the columns the Versions-1/2 ``layout`` assigns it.
    ``b`` may be a vector or an ``n × k`` panel — the per-PE sweeps are
    level-3 either way.  Returns the solution plus per-PE spans and comm
    counters, which equal the simulated program's.
    """
    if not isinstance(layout, BlockCyclicLayout):
        raise DistributionError(
            "the distributed solve supports Versions 1/2 "
            "(whole block columns)")
    ok, reason = multiprocess_available()
    if not ok:
        raise MultiprocessUnavailableError(reason)
    n = r.n if isinstance(r, PackedUpper) else r.shape[0]
    m = int(block_size)
    if n % m != 0:
        raise ShapeError(f"factor order {n} not a multiple of m={m}")
    p = n // m
    panel, single = as_panel(b, n)
    k = panel.shape[1]
    nproc = layout.nproc

    ctx = transport.context()
    with transport.session() as sess:
        try:
            r_seg, r_h = sess.ndarray((packed_size(n),))
            b_arr, b_h = sess.ndarray((n, k))
            x_arr, x_h = sess.ndarray((n, k))
            barrier = sess.barrier(nproc)
            comm_h = _comm_segment(sess, nproc, _ring_bytes(m * k, m))
            queue = sess.queue()
        except (OSError, PermissionError, ValueError) as exc:
            raise MultiprocessUnavailableError(
                f"could not allocate shared resources: {exc}") from exc
        if isinstance(r, PackedUpper):
            r_seg[:] = r.data
        else:
            PackedUpper(r_seg, n).write_rows(0, np.asarray(r))
        b_arr[:] = panel

        kwargs = dict(layout=layout, m=m, p=p, packed=r_h, b=b_h, x=x_h)
        args = (triangular_solve_program, kwargs, comm_h, barrier, queue)
        payloads, wall = _run_workers(ctx, _program_worker, nproc, args,
                                      queue, barrier)
        x = np.array(x_arr)

    run = MPSolveRun(x=from_panel(x, single), nproc=nproc,
                     layout=layout, block_size=m, num_blocks=p, nrhs=k,
                     wall_seconds=wall,
                     start_method=ctx.get_start_method(),
                     workers=payloads)
    run._publish(
        "repro_mp_solves_total",
        "Real multiprocess distributed triangular solves completed",
        dict(nproc=str(nproc)),
        {"solve_broadcast": sum(run.broadcast_words_by_rank().values()),
         "solve_reduce": sum(run.reduce_words_by_rank().values())})
    return run
