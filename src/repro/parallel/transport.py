"""Shared-memory plumbing for the real SPMD backend.

The multiprocess backend needs four things from the machine it runs on:
named bulk-data *segments* every PE can map (the stand-in for the T3D's
globally addressable memory), a *barrier*, a *result queue*, and a
process *context* to start workers from.  This module provides them over
:mod:`multiprocessing.shared_memory` and the stock multiprocessing
primitives: :func:`probe` says whether they work here, :func:`context`
is the process context, :func:`session` owns one run's segments and
:func:`attach` maps a segment in a worker.

Segment lifecycle is centralized in :class:`TransportSession`: the
parent creates every segment through the session and tears the whole
set down with one :meth:`~TransportSession.cleanup` call that
``close()``\\ s and ``unlink()``\\ s each segment *unconditionally* —
tolerating segments a crashed child never attached, double unlinks, and
interpreter-shutdown races — so a worker dying mid-step can no longer
leak ``/dev/shm`` space or trip resource-tracker warnings.  Segments
carry a recognizable ``repro_`` name prefix, which the leak tests grep
``/dev/shm`` for.
"""

from __future__ import annotations

import itertools
import os
import secrets
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SegmentHandle",
    "Attachment",
    "TransportSession",
    "attach",
    "context",
    "probe",
    "session",
]

#: Prefix of every segment name this process creates (leak tests scan
#: ``/dev/shm`` for it).
SEGMENT_PREFIX = "repro_"

_counter = itertools.count()
_probe_result: tuple[bool, str] | None = None


@dataclass(frozen=True)
class SegmentHandle:
    """Picklable address of one shared segment.

    Carries everything a worker needs to map the segment as an ndarray:
    the segment name plus the array shape/dtype.  Handles cross the
    process boundary in the worker ``args`` tuple (they must stay cheap
    to pickle).
    """

    name: str
    shape: tuple
    dtype: str = "float64"


class Attachment:
    """A worker-side mapping of a segment: ``.array`` + ``.close()``."""

    def __init__(self, raw, array: np.ndarray):
        self._raw = raw
        self.array = array

    def close(self) -> None:
        self.array = None
        if self._raw is not None:
            try:
                self._raw.close()
            except Exception:
                pass
            self._raw = None


class TransportSession:
    """Parent-side owner of one run's shared resources.

    Tracks every segment created through it; :meth:`cleanup` releases
    them all no matter what state the run (or its workers) died in.
    Use as a context manager::

        with transport.session() as sess:
            arr, handle = sess.ndarray((n, n))
            ...
        # segments closed + unlinked here, crash or not
    """

    def __init__(self):
        self._segments: list = []

    # -- resource creation --------------------------------------------
    def ndarray(self, shape, dtype=np.float64
                ) -> tuple[np.ndarray, SegmentHandle]:
        """A fresh shared array + the handle workers attach.

        The array reads as zeros (a new POSIX shared-memory object is
        ``ftruncate``\\ d), and it is not written here: a page costs
        memory only in the processes that touch it, so a segment only
        workers fill adds nothing to this process's resident set.
        """
        from multiprocessing import shared_memory
        dtype = np.dtype(dtype)
        nbytes = max(1, int(np.prod(shape)) * dtype.itemsize)
        name = (f"{SEGMENT_PREFIX}{os.getpid()}_"
                f"{next(_counter)}_{secrets.token_hex(4)}")
        raw = shared_memory.SharedMemory(name=name, create=True,
                                         size=nbytes)
        self._segments.append(raw)
        arr = np.ndarray(shape, dtype=dtype, buffer=raw.buf)
        return arr, SegmentHandle(name=name, shape=tuple(shape),
                                  dtype=dtype.name)

    def barrier(self, parties: int):
        return context().Barrier(parties)

    def queue(self):
        return context().Queue()

    # -- teardown ------------------------------------------------------
    def cleanup(self) -> None:
        """Close + unlink every segment, tolerating every failure mode.

        Runs in the parent's ``finally``: segments must disappear even
        when a child crashed before attaching, died holding the barrier,
        or the parent is unwinding from an exception mid-setup.
        """
        segments, self._segments = self._segments, []
        for raw in segments:
            try:
                raw.close()
            except Exception:
                pass
            try:
                raw.unlink()
            except FileNotFoundError:
                pass
            except Exception:
                pass

    def __enter__(self) -> "TransportSession":
        return self

    def __exit__(self, *exc) -> None:
        self.cleanup()


def probe(*, refresh: bool = False) -> tuple[bool, str]:
    """``(ok, reason)`` — can shared segments and process
    synchronization run here?  Cached after the first call."""
    global _probe_result
    if _probe_result is not None and not refresh:
        return _probe_result
    try:
        from multiprocessing import shared_memory
        seg = shared_memory.SharedMemory(create=True, size=16)
        seg.close()
        seg.unlink()
    except (ImportError, OSError, ValueError) as exc:
        _probe_result = False, f"shared memory unavailable: {exc}"
        return _probe_result
    try:
        context().Barrier(1)
    except (ImportError, OSError, PermissionError, ValueError) as exc:
        _probe_result = (
            False, f"process synchronization unavailable: {exc}")
        return _probe_result
    _probe_result = True, ""
    return _probe_result


def context():
    """The :mod:`multiprocessing` context workers start from (``fork``
    where the platform has it, else ``spawn``)."""
    import multiprocessing as mp
    method = "fork" if "fork" in mp.get_all_start_methods() else "spawn"
    return mp.get_context(method)


def session() -> TransportSession:
    """A fresh resource session for one run."""
    return TransportSession()


def attach(handle: SegmentHandle) -> Attachment:
    """Worker-side: map an existing segment by handle."""
    from multiprocessing import shared_memory
    raw = shared_memory.SharedMemory(name=handle.name)
    arr = np.ndarray(handle.shape, dtype=np.dtype(handle.dtype),
                     buffer=raw.buf)
    return Attachment(raw, arr)
