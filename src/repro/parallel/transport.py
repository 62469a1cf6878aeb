"""Pluggable transport for the real SPMD backends.

The multiprocess backend needs four things from the machine it runs on:
named bulk-data *segments* every PE can map (the stand-in for the T3D's
globally addressable memory), a *barrier*, a *result queue*, and a
process *context* to start workers from.  This module abstracts them
behind a small :class:`Transport` protocol so the same SPMD programs
(:mod:`repro.parallel.mp_backend`) can later run over a different
fabric — a socket transport spanning hosts would implement the same
five methods — while :class:`SharedMemoryTransport` keeps today's
single-host :mod:`multiprocessing.shared_memory` behaviour as the
default.

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

from repro.errors import DistributionError

__all__ = [
    "SegmentHandle",
    "Attachment",
    "TransportSession",
    "Transport",
    "SharedMemoryTransport",
    "get_transport",
    "register_transport",
    "available_transports",
]

#: Prefix of every segment name this process creates (leak tests scan
#: ``/dev/shm`` for it).
SEGMENT_PREFIX = "repro_"


@dataclass(frozen=True)
class SegmentHandle:
    """Picklable address of one shared segment.

    Carries everything a worker needs to map the segment as an ndarray:
    the transport-level name plus the array shape/dtype.  Handles cross
    the process boundary in the worker ``args`` tuple (they must stay
    cheap to pickle).
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

    def __init__(self, transport: "Transport"):
        self.transport = transport
        self._segments: list = []

    # -- resource creation --------------------------------------------
    def ndarray(self, shape, dtype=np.float64
                ) -> tuple[np.ndarray, SegmentHandle]:
        """A fresh shared array + the handle workers attach.

        The array reads as zeros, and it is not written here: a page
        costs memory only in the processes that touch it, so a segment
        only workers fill adds nothing to this process's resident set.
        Every transport's :meth:`Transport._create_segment` guarantees
        the zeros.
        """
        arr, handle, raw = self.transport._create_segment(shape, dtype)
        self._segments.append(raw)
        return arr, handle

    def barrier(self, parties: int):
        return self.transport.context().Barrier(parties)

    def queue(self):
        return self.transport.context().Queue()

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


class Transport:
    """Protocol for a backend fabric (see module docstring).

    Subclasses implement :meth:`probe`, :meth:`context`,
    :meth:`_create_segment` and :meth:`attach`; everything else is
    shared plumbing.  ``name`` is the registry key
    (``SolverPlan.transport`` / CLI ``--transport``).
    """

    name = "abstract"

    def probe(self) -> tuple[bool, str]:
        """``(ok, reason)`` — can this transport run here?"""
        raise NotImplementedError

    def context(self):
        """The :mod:`multiprocessing` context workers start from."""
        raise NotImplementedError

    def session(self) -> TransportSession:
        """A fresh resource session for one run."""
        return TransportSession(self)

    def _create_segment(self, shape, dtype):
        """Create a named segment; returns ``(array, handle, raw)``.

        The segment must read as zeros.  A fabric whose fresh segments
        are not zero must zero-fill them here, before returning.
        """
        raise NotImplementedError

    def attach(self, handle: SegmentHandle) -> Attachment:
        """Worker-side: map an existing segment by handle."""
        raise NotImplementedError


class SharedMemoryTransport(Transport):
    """Single-host transport over :mod:`multiprocessing.shared_memory`.

    Workers are forked (or spawned) OS processes; segments live in
    ``/dev/shm`` under a ``repro_`` prefix; the barrier and queue are
    the stock multiprocessing primitives.
    """

    name = "shared_memory"

    def __init__(self):
        self._counter = itertools.count()
        self._probe_result: tuple[bool, str] | None = None

    def probe(self, *, refresh: bool = False) -> tuple[bool, str]:
        if self._probe_result is not None and not refresh:
            return self._probe_result
        try:
            from multiprocessing import shared_memory
            seg = shared_memory.SharedMemory(create=True, size=16)
            seg.close()
            seg.unlink()
        except (ImportError, OSError, ValueError) as exc:
            self._probe_result = False, f"shared memory unavailable: {exc}"
            return self._probe_result
        try:
            self.context().Barrier(1)
        except (ImportError, OSError, PermissionError, ValueError) as exc:
            self._probe_result = (
                False, f"process synchronization unavailable: {exc}")
            return self._probe_result
        self._probe_result = True, ""
        return self._probe_result

    def context(self):
        import multiprocessing as mp
        method = "fork" if "fork" in mp.get_all_start_methods() else "spawn"
        return mp.get_context(method)

    def _create_segment(self, shape, dtype):
        # A new POSIX shared-memory object reads as zeros (ftruncate).
        from multiprocessing import shared_memory
        dtype = np.dtype(dtype)
        nbytes = max(1, int(np.prod(shape)) * dtype.itemsize)
        name = (f"{SEGMENT_PREFIX}{os.getpid()}_"
                f"{next(self._counter)}_{secrets.token_hex(4)}")
        raw = shared_memory.SharedMemory(name=name, create=True,
                                         size=nbytes)
        arr = np.ndarray(shape, dtype=dtype, buffer=raw.buf)
        return arr, SegmentHandle(name=name, shape=tuple(shape),
                                  dtype=dtype.name), raw

    def attach(self, handle: SegmentHandle) -> Attachment:
        from multiprocessing import shared_memory
        raw = shared_memory.SharedMemory(name=handle.name)
        arr = np.ndarray(handle.shape, dtype=np.dtype(handle.dtype),
                         buffer=raw.buf)
        return Attachment(raw, arr)


_TRANSPORTS: dict[str, Transport] = {}


def register_transport(transport: Transport) -> Transport:
    """Register a transport under its ``name`` (later wins)."""
    _TRANSPORTS[transport.name] = transport
    return transport


def get_transport(name: str) -> Transport:
    """Look up a registered transport by name."""
    try:
        return _TRANSPORTS[name]
    except KeyError:
        raise DistributionError(
            f"unknown transport {name!r}; registered: "
            f"{sorted(_TRANSPORTS)}") from None


def available_transports() -> tuple[str, ...]:
    return tuple(sorted(_TRANSPORTS))


register_transport(SharedMemoryTransport())
