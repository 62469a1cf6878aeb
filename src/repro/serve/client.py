"""TCP client for the solver service.

:meth:`TCPClient.solve` returns a :class:`~repro.serve.ServeResponse`,
as :meth:`~repro.serve.SolverService.solve` does in process, and the
client maps wire-level error names back onto the package's exception
types, so ``except ServiceOverloadError`` works identically on either
side of the socket.
"""

from __future__ import annotations

import json
import socket
import threading

import numpy as np

from repro.errors import (
    DeadlineExceededError,
    InvalidOptionError,
    ReproError,
    ServiceClosedError,
    ServiceOverloadError,
    ShapeError,
)
from repro.serve.dispatcher import ServeRecord, ServeResponse, ServeStats

__all__ = ["RemoteServeError", "TCPClient"]


class RemoteServeError(ReproError, RuntimeError):
    """A server-side failure with no local exception type to map to."""


#: Wire error names the TCP client translates back to local exceptions.
_ERROR_TYPES = {
    cls.__name__: cls
    for cls in (ServiceOverloadError, DeadlineExceededError,
                ServiceClosedError, InvalidOptionError, ShapeError)
}


class TCPClient:
    """Blocking newline-JSON client for :func:`start_tcp_server`.

    One socket per client; calls are serialized with a lock (open
    several clients for concurrent traffic — the *server* coalesces
    across connections, so clients stay simple).
    """

    def __init__(self, host: str, port: int, *,
                 connect_timeout: float = 5.0):
        self._sock = socket.create_connection((host, port),
                                              timeout=connect_timeout)
        self._sock.settimeout(None)
        self._file = self._sock.makefile("rwb")
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def _roundtrip(self, msg: dict) -> dict:
        with self._lock:
            self._file.write(json.dumps(msg).encode() + b"\n")
            self._file.flush()
            line = self._file.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        reply = json.loads(line)
        if reply.get("ok"):
            return reply
        exc_type = _ERROR_TYPES.get(reply.get("error", ""),
                                    RemoteServeError)
        raise exc_type(reply.get("message", "remote solve failed"))

    # ------------------------------------------------------------------
    def solve(self, op: str, b, *,
              timeout_s: float | None = None) -> ServeResponse:
        """Solve against remote operator ``op``; raises the same
        exception types as the in-process path."""
        msg: dict = {"op": op, "b": np.asarray(b, dtype=np.float64).tolist()}
        if timeout_s is not None:
            msg["timeout_ms"] = float(timeout_s) * 1e3
        reply = self._roundtrip(msg)
        record = ServeRecord(**reply["record"])
        return ServeResponse(x=np.asarray(reply["x"], dtype=np.float64),
                             record=record,
                             execution=reply.get("execution"))

    def ops(self) -> list[str]:
        return list(self._roundtrip({"cmd": "ops"})["ops"])

    def stats(self) -> ServeStats:
        return ServeStats(**self._roundtrip({"cmd": "stats"})["stats"])

    def metrics(self) -> str:
        """Prometheus exposition text from the server's registry."""
        return self._roundtrip({"cmd": "metrics"})["metrics"]

    def close(self) -> None:
        try:
            self._file.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "TCPClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
