"""The solver service: named operators in front of the dispatcher.

:class:`SolverService` is the deployable unit: it owns a
:class:`~repro.serve.BatchDispatcher`, maps operator *names* to planned
:class:`~repro.engine.SolverPlan`\\ s (planning happens once, at
registration), and exposes three request surfaces:

* **in-process, sync** — :meth:`SolverService.solve` (or
  :meth:`submit` for a future);
* **in-process, async** — :meth:`SolverService.asolve`, awaitable from
  any asyncio event loop;
* **TCP** — :func:`start_tcp_server` runs an asyncio
  newline-delimited-JSON server (its event loop on a daemon thread, the
  numeric work on the dispatcher's executor), so external clients get
  the same coalescing as in-process callers.

The wire protocol is one JSON object per line.  Requests::

    {"op": "<name>", "b": [...], "id": 7, "timeout_ms": 50}
    {"cmd": "ops" | "stats" | "metrics"}

Responses echo ``id`` when present and carry either
``{"ok": true, "x": [...], "record": {...}}`` or
``{"ok": false, "error": "<ExceptionName>", "message": "..."}``.
Requests on one connection are handled concurrently (a task per line),
so a pipelining client's traffic coalesces exactly like concurrent
connections do.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import threading
from concurrent.futures import Future

import numpy as np

import repro.obs as obs
from repro.engine.plan import SolverPlan
from repro.engine.plan import plan as make_plan
from repro.errors import InvalidOptionError, ReproError
from repro.serve.dispatcher import BatchDispatcher, ServeResponse, ServeStats

__all__ = ["SolverService", "TCPServerHandle", "start_tcp_server"]


class SolverService:
    """Serve solve requests against a set of registered operators.

    Construction knobs are the dispatcher's (latency budget, panel cap,
    admission bound, worker threads); see
    :class:`~repro.serve.BatchDispatcher`.
    """

    def __init__(self, *, max_wait_ms: float = 2.0, max_batch_k: int = 32,
                 max_queue_depth: int = 256, workers: int = 2,
                 cache=None, adaptive_wait: bool = False,
                 store=None):
        self._dispatcher = BatchDispatcher(
            max_wait_ms=max_wait_ms, max_batch_k=max_batch_k,
            max_queue_depth=max_queue_depth, workers=workers, cache=cache,
            adaptive_wait=adaptive_wait, store=store)
        #: The cache and persistent store warm-up at registration uses:
        #: the same ones requests are served from (``None`` lets each
        #: plan's ``cache`` axis decide).
        self._cache = cache
        self._store = store
        self._plans: dict[str, SolverPlan] = {}
        self._plans_lock = threading.Lock()

    # ------------------------------------------------------------------
    def register(self, name: str, operator, *, warm: bool = False,
                 **plan_kwargs) -> SolverPlan:
        """Plan ``operator`` once and serve it under ``name``.

        ``plan_kwargs`` go to :func:`repro.engine.plan` (algorithm,
        precision, representation, …); ``warm=True`` additionally pays
        the factorization now, so the first request hits the cache.
        With ``cache="persistent"`` in the plan kwargs (or a ``store``
        handed to the service), warming first consults the on-disk
        store — a restarted service reloads yesterday's factorization
        instead of recomputing it — and publishes fresh computes back.
        """
        pl = make_plan(operator, **plan_kwargs)
        with self._plans_lock:
            self._plans[name] = pl
        if warm:
            from repro.engine.engine import factor
            factor(pl, cache=self._cache, store=self._store)
        return pl

    def operators(self) -> tuple[str, ...]:
        """Registered operator names, sorted."""
        with self._plans_lock:
            return tuple(sorted(self._plans))

    def plan_for(self, name: str) -> SolverPlan:
        """The plan serving ``name`` (raises on unknown names)."""
        with self._plans_lock:
            try:
                return self._plans[name]
            except KeyError:
                raise InvalidOptionError(
                    f"unknown operator {name!r}; registered: "
                    f"{sorted(self._plans)}") from None

    # ------------------------------------------------------------------
    def submit(self, name: str, b, *,
               timeout_s: float | None = None) -> Future:
        """Enqueue a solve against operator ``name``; returns a future
        of :class:`~repro.serve.ServeResponse`."""
        return self._dispatcher.submit(self.plan_for(name), b,
                                       timeout_s=timeout_s)

    def solve(self, name: str, b, *,
              timeout_s: float | None = None) -> ServeResponse:
        """Blocking convenience: ``submit(...).result()``."""
        return self.submit(name, b, timeout_s=timeout_s).result()

    async def asolve(self, name: str, b, *,
                     timeout_s: float | None = None) -> ServeResponse:
        """Awaitable solve for asyncio callers (the numeric work stays
        on the dispatcher's thread pool)."""
        return await asyncio.wrap_future(
            self.submit(name, b, timeout_s=timeout_s))

    # ------------------------------------------------------------------
    def stats(self) -> ServeStats:
        """Dispatcher counter snapshot."""
        return self._dispatcher.stats()

    def close(self, *, drain: bool = True,
              timeout: float | None = 30.0) -> None:
        """Shut the dispatcher down (see
        :meth:`~repro.serve.BatchDispatcher.close`)."""
        self._dispatcher.close(drain=drain, timeout=timeout)

    def __enter__(self) -> "SolverService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close(drain=True)


# ----------------------------------------------------------------------
# TCP front end
# ----------------------------------------------------------------------
def _error_reply(exc: Exception) -> dict:
    return {"ok": False, "error": type(exc).__name__,
            "message": str(exc)}


async def _solve_reply(service: SolverService, msg: dict) -> dict:
    try:
        b = np.asarray(msg["b"], dtype=np.float64)
        timeout_ms = msg.get("timeout_ms")
        timeout_s = None if timeout_ms is None else float(timeout_ms) / 1e3
        resp = await service.asolve(msg.get("op", "default"), b,
                                    timeout_s=timeout_s)
    except (ReproError, KeyError, TypeError, ValueError) as exc:
        return _error_reply(exc)
    return {"ok": True, "x": resp.x.tolist(),
            "record": dataclasses.asdict(resp.record),
            "execution": (None if resp.execution is None
                          else {"nrhs": resp.execution.nrhs,
                                "wall_seconds":
                                    resp.execution.wall_seconds,
                                "algorithm": resp.execution.algorithm,
                                "cache_hit": resp.execution.cache_hit})}


async def _command_reply(service: SolverService, msg: dict) -> dict:
    cmd = msg.get("cmd")
    if cmd == "ops":
        return {"ok": True, "ops": list(service.operators())}
    if cmd == "stats":
        return {"ok": True,
                "stats": dataclasses.asdict(service.stats())}
    if cmd == "metrics":
        return {"ok": True, "metrics": obs.render_prometheus()}
    return _error_reply(InvalidOptionError(
        f"unknown command {cmd!r}; expected ops/stats/metrics"))


async def _handle_connection(service: SolverService,
                             reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
    write_lock = asyncio.Lock()
    tasks: set[asyncio.Task] = set()

    async def respond(msg_id, coro) -> None:
        reply = await coro
        if msg_id is not None:
            reply["id"] = msg_id
        async with write_lock:
            writer.write(json.dumps(reply).encode() + b"\n")
            await writer.drain()

    try:
        while True:
            line = await reader.readline()
            if not line:
                break
            line = line.strip()
            if not line:
                continue
            try:
                msg = json.loads(line)
                if not isinstance(msg, dict):
                    raise ValueError("request must be a JSON object")
            except ValueError as exc:
                await respond(None, _ready(_error_reply(exc)))
                continue
            coro = (_command_reply(service, msg) if "cmd" in msg
                    else _solve_reply(service, msg))
            task = asyncio.ensure_future(respond(msg.get("id"), coro))
            tasks.add(task)
            task.add_done_callback(tasks.discard)
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):  # pragma: no cover - teardown
            pass


async def _ready(value: dict) -> dict:
    return value


class TCPServerHandle:
    """A running TCP front end (event loop on a daemon thread)."""

    def __init__(self, loop: asyncio.AbstractEventLoop,
                 thread: threading.Thread, server: asyncio.AbstractServer,
                 host: str, port: int):
        self._loop = loop
        self._thread = thread
        self._server = server
        self.host = host
        self.port = port
        self._closed = False

    @property
    def address(self) -> tuple[str, int]:
        return (self.host, self.port)

    def close(self, timeout: float = 5.0) -> None:
        """Stop accepting, close connections, stop the loop thread.

        The service itself is left running — callers own its
        lifecycle; close it separately (ideally after this, so
        connections drain first)."""
        if self._closed:
            return
        self._closed = True

        async def _shutdown():
            self._server.close()
            await self._server.wait_closed()

        asyncio.run_coroutine_threadsafe(
            _shutdown(), self._loop).result(timeout)
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout)
        if not self._loop.is_running():  # pragma: no branch
            self._loop.close()

    def __enter__(self) -> "TCPServerHandle":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def start_tcp_server(service: SolverService, host: str = "127.0.0.1",
                     port: int = 0) -> TCPServerHandle:
    """Expose ``service`` over TCP; returns once the socket is bound.

    ``port=0`` picks a free port (read it back from ``handle.port``).
    The asyncio event loop runs on a daemon thread, so this works from
    synchronous code and tests alike; :meth:`TCPServerHandle.close`
    tears it down.
    """
    loop = asyncio.new_event_loop()
    started = threading.Event()
    boot: dict = {}

    def runner() -> None:
        asyncio.set_event_loop(loop)

        async def _boot():
            try:
                server = await asyncio.start_server(
                    lambda r, w: _handle_connection(service, r, w),
                    host, port)
            except OSError as exc:
                boot["error"] = exc
                started.set()
                return
            boot["server"] = server
            boot["addr"] = server.sockets[0].getsockname()[:2]
            started.set()

        loop.run_until_complete(_boot())
        if "error" not in boot:
            loop.run_forever()

    thread = threading.Thread(target=runner, name="repro-serve-tcp",
                              daemon=True)
    thread.start()
    started.wait()
    if "error" in boot:
        thread.join()
        loop.close()
        raise boot["error"]
    bound_host, bound_port = boot["addr"]
    return TCPServerHandle(loop, thread, boot["server"],
                           bound_host, bound_port)
