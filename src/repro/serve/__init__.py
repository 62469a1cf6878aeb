"""Solver-as-a-service: cross-request panel coalescing.

The engine already amortizes factorizations (``FactorizationCache``)
and solves panels at level-3 BLAS speed; this package carries both
levers across the request boundary.  A :class:`BatchDispatcher` groups
concurrent single-RHS requests that share a factorization
(``plan.cache_key()``) and executes them as one ``n × k`` panel under a
configurable latency budget; :class:`SolverService` fronts it with
named operators and sync/async/TCP request surfaces; the clients in
:mod:`repro.serve.client` consume either transport behind one API.

Quick start::

    from repro.serve import SolverService

    with SolverService(max_wait_ms=2.0, max_batch_k=32) as svc:
        svc.register("toeplitz", op, warm=True)
        resp = svc.solve("toeplitz", b)      # resp.x, resp.record

See ``docs/serving.md`` for the serving guide (latency budget tuning,
admission control, deployment over TCP, metrics).
"""

from repro.serve.dispatcher import (
    BatchDispatcher,
    ServeRecord,
    ServeResponse,
    ServeStats,
)
from repro.serve.server import SolverService, TCPServerHandle, start_tcp_server
from repro.serve.client import RemoteServeError, TCPClient

__all__ = [
    "BatchDispatcher",
    "ServeRecord",
    "ServeResponse",
    "ServeStats",
    "SolverService",
    "TCPServerHandle",
    "start_tcp_server",
    "RemoteServeError",
    "TCPClient",
]
