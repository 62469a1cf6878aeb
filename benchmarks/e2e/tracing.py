"""Spans recorded from outside the program for the ``--trace`` run.

:func:`instrument` wraps public calls of each layer (planning, engine
execute, the factor kernels, factorization solves, refinement, both cache
tiers, and — in the TCP server — the JSON codec) so that every call
leaves one span: name, start, end, parent, attributes.  Spans stay in
memory; :meth:`Tracer.records` turns them into the unified trace schema
(``repro.obs.make_record``) for ``repro.obs.write_jsonl``, so
``repro trace report`` and ``repro trace timeline`` read the file.

Nothing under ``src/`` changes: the wrappers replace module and class
attributes for the traced phase and :func:`instrument` returns the
function that puts the originals back.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import json
import os
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

from common import mean, median, percentile

SOURCE = "bench"

#: Request id of the request line the TCP front end decoded last in this
#: context.  asyncio copies the context into the task it then creates for
#: the solve, so the service's ``submit`` can tag the right-hand side with
#: the id that the engine batch later reports.
current_request = contextvars.ContextVar("current_request", default=None)


class Tracer:
    """In-memory span recorder, safe to use from several threads."""

    def __init__(self):
        self._spans: list[tuple] = []
        self._ids = itertools.count()
        self._local = threading.local()
        #: ``id(rhs array)`` -> request id, consumed by the batch span.
        self.request_of: dict[int, int] = {}
        #: (order, nrhs) -> a triangular factor solved with that shape.
        self.solve_refs: dict[tuple[int, int], np.ndarray] = {}

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, **attrs):
        """Time the body as a child of this thread's open span; yields
        the attribute dict so the body can add to it."""
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else None
        request_id = getattr(self._local, "request_id", None)
        if request_id is not None:
            attrs.setdefault("request_id", request_id)
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield attrs
        except BaseException as exc:
            attrs["error"] = type(exc).__name__
            raise
        finally:
            end = time.perf_counter()
            stack.pop()
            self._spans.append((sid, parent, name, start, end, attrs))

    @contextmanager
    def request(self, request_id: int):
        """Root span of one closed-loop request; spans opened inside it
        on this thread carry its id."""
        self._local.request_id = request_id
        try:
            with self.span("request") as attrs:
                yield attrs
        finally:
            self._local.request_id = None

    def add(self, name: str, start: float, end: float, *,
            parent: int | None = None, **attrs) -> int:
        """Record a span measured elsewhere (e.g. from a ``ServeRecord``)."""
        sid = next(self._ids)
        self._spans.append((sid, parent, name, start, end, attrs))
        return sid

    def records(self) -> list[dict]:
        """Every span as a unified-schema record, in start order."""
        from repro.obs import make_record
        return [make_record(source=SOURCE, rec_id=sid, parent=parent,
                            name=name, kind="span", rank=None, start=start,
                            end=end, attrs=attrs)
                for sid, parent, name, start, end, attrs in sorted(
                    self._spans, key=lambda s: (s[3], -s[4]))]


def add_self_times(records: list[dict]) -> None:
    """Stamp ``attrs["self_s"]``: duration minus the union of the
    children's intervals, clipped to the span."""
    children = defaultdict(list)
    for rec in records:
        if rec["parent"] is not None:
            children[rec["parent"]].append(rec)
    for rec in records:
        lo, hi = rec["start"], rec["end"]
        covered, reach = 0.0, lo
        for s, e in sorted((max(c["start"], lo), min(c["end"], hi))
                           for c in children[rec["id"]]):
            s = max(s, reach)
            if e > s:
                covered += e - s
                reach = e
        rec["attrs"]["self_s"] = max(0.0, (hi - lo) - covered)


def add_model_flops(records: list[dict]) -> None:
    """Stamp ``attrs["model_flops"]``, which ``repro trace report`` reads
    for its flop-efficiency section: the eqs. 25–32 model for factor
    spans, 2n²k for solve spans."""
    from repro.core.flops import factorization_flops
    for rec in records:
        a = rec["attrs"]
        if rec["name"] == "core.factor":
            a["model_flops"] = factorization_flops(
                a["order"], a["block_size"],
                representation=a["representation"], k=a["panel"])
        elif rec["name"] == "core.solve":
            a["model_flops"] = 2.0 * a["order"] ** 2 * a["nrhs"]


def unattributed_pct(records: list[dict]) -> float:
    """Share of request time spent in the request spans themselves."""
    roots = [r for r in records if r["name"] == "request"]
    total = sum(r["end"] - r["start"] for r in roots)
    own = sum(r["attrs"]["self_s"] for r in roots)
    return 100.0 * own / total if total > 0 else 0.0


def _nrhs(b) -> int:
    return 1 if np.ndim(b) == 1 else int(np.shape(b)[1])


class _TracedJson:
    """Stand-in for the ``json`` module inside ``repro.serve.server``."""

    def __init__(self, tracer: Tracer):
        self._tracer = tracer

    def loads(self, s, *args, **kwargs):
        with self._tracer.span("serve.wire.decode", bytes=len(s)) as attrs:
            msg = json.loads(s, *args, **kwargs)
        if isinstance(msg, dict) and "id" in msg:
            attrs["request_id"] = msg["id"]
            current_request.set(msg["id"])
        return msg

    def dumps(self, obj, *args, **kwargs):
        rid = obj.get("id") if isinstance(obj, dict) else None
        with self._tracer.span("serve.wire.encode",
                               request_id=rid) as attrs:
            out = json.dumps(obj, *args, **kwargs)
            attrs["bytes"] = len(out)
        return out

    def __getattr__(self, name):
        return getattr(json, name)


def instrument(tracer: Tracer):
    """Wrap each layer's public calls with spans; returns the undo."""
    import repro.core.refinement as refinement
    import repro.core.schur_indefinite as indefinite
    import repro.core.schur_spd as spd
    import repro.engine.engine as engine
    import repro.parallel.backends as backends
    import repro.serve.server as server
    from repro.engine.cache import FactorizationCache
    from repro.engine.cache_store import CacheStore

    undo = []

    def patch(owner, attr, factory):
        original = (owner.__dict__[attr] if isinstance(owner, type)
                    else getattr(owner, attr))
        setattr(owner, attr, functools.wraps(original)(factory(original)))
        undo.append((owner, attr, original))

    undo.append((server, "json", server.json))
    server.json = _TracedJson(tracer)

    def traced(name, before=None, after=None):
        def factory(original):
            def wrapper(*args, **kwargs):
                attrs = before(*args, **kwargs) if before else {}
                with tracer.span(name, **attrs) as a:
                    out = original(*args, **kwargs)
                    if after is not None:
                        a.update(after(out, *args, **kwargs))
                return out
            return wrapper
        return factory

    def factor_attrs(kind):
        def before(t, *args, options=None, **kwargs):
            pl = args[0] if args else None
            rep = (pl.representation if pl is not None
                   else options.representation if options is not None
                   else "vy2")
            panel = (pl.panel if pl is not None
                     else options.panel if options is not None else None)
            return {"kind": kind, "order": t.order,
                    "block_size": t.block_size, "representation": rep,
                    "panel": panel}
        return before

    def solve_attrs(kind):
        def before(fact, b):
            key = (fact.order, _nrhs(b))
            if kind != "indefinite":
                tracer.solve_refs[key] = fact.r
            return {"kind": kind, "order": key[0], "nrhs": key[1]}
        return before

    def batch_attrs(pl, bs, **kwargs):
        return {"order": pl.order, "request_ids": [
            tracer.request_of.pop(id(b), None) for b in bs]}

    def tag_request(original):
        def wrapper(self, name, b, **kwargs):
            rid = current_request.get()
            if rid is not None:
                tracer.request_of[id(b)] = rid
            return original(self, name, b, **kwargs)
        return wrapper

    def store_put(ok, store, key, *args, **kwargs):
        size = os.path.getsize(store.path_for(key)) if ok else 0
        return {"written": bool(ok), "bytes": size}

    from repro.core.schur_indefinite import IndefiniteFactorization
    from repro.core.schur_spd import SPDFactorization
    from repro.parallel.backends import DistributedFactorization
    from repro.serve.server import SolverService

    patch(engine, "make_plan", traced("engine.plan"))
    patch(server, "make_plan", traced("engine.plan"))
    patch(engine, "execute", traced(
        "engine.execute",
        before=lambda pl, b, **k: {"order": pl.order, "nrhs": _nrhs(b)}))
    patch(engine, "execute_many", traced("serve.batch", before=batch_attrs))
    patch(spd, "schur_spd_factor", traced("core.factor", factor_attrs("spd")))
    patch(indefinite, "schur_indefinite_factor",
          traced("core.factor", factor_attrs("indefinite")))
    patch(backends, "factor_distributed",
          traced("core.factor", factor_attrs("distributed")))
    patch(SPDFactorization, "solve", traced("core.solve", solve_attrs("spd")))
    patch(IndefiniteFactorization, "solve",
          traced("core.solve", solve_attrs("indefinite")))
    patch(DistributedFactorization, "solve",
          traced("core.solve", solve_attrs("distributed")))
    patch(refinement, "refine", traced(
        "core.refinement",
        after=lambda res, *a, **k: {"sweeps": res.iterations}))
    patch(FactorizationCache, "get", traced(
        "engine.cache.get",
        after=lambda out, *a, **k: {"hit": out is not None}))
    patch(FactorizationCache, "put", traced("engine.cache.put"))
    patch(CacheStore, "get", traced(
        "engine.cache_store.get",
        after=lambda out, *a, **k: {"hit": out is not None}))
    patch(CacheStore, "put", traced("engine.cache_store.put",
                                    after=store_put))
    patch(SolverService, "submit", tag_request)

    def restore():
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)
    return restore


def _ms(recs) -> list[float]:
    return [1e3 * (r["end"] - r["start"]) for r in recs]


def span_metrics(records: list[dict], since: float) -> dict[str, float]:
    """Per-layer numbers the spans give (after :func:`add_model_flops`).
    Planning, factoring and store writes count from the start of the trace
    (the serve workloads do them only while setting up); everything else
    counts from ``since``, the start of the traced phase."""

    def named(name, *, everything=False):
        return [r for r in records if r["name"] == name
                and (everything or r["start"] >= since)]

    out = {}
    factors = named("core.factor", everything=True)
    out["engine.plan.ms_p50"] = median(_ms(named("engine.plan",
                                                 everything=True)))
    out["core.factor.ms_p50"] = median(_ms(factors))
    flops = sum(r["attrs"]["model_flops"] for r in factors)
    seconds = sum(r["end"] - r["start"] for r in factors)
    out["core.factor.gflops"] = flops / seconds / 1e9 if seconds else 0.0
    out["core.factor.calls"] = float(len(named("core.factor")))

    solves = named("core.solve")
    seconds = sum(r["end"] - r["start"] for r in solves)
    columns = sum(r["attrs"]["nrhs"] for r in solves)
    flops = sum(r["attrs"]["model_flops"] for r in solves)
    out["core.solve.ms_per_rhs"] = 1e3 * seconds / columns if columns else 0.0
    out["core.solve.gflops"] = flops / seconds / 1e9 if seconds else 0.0
    out["core.refinement.sweeps_mean"] = mean(
        [r["attrs"]["sweeps"] for r in named("core.refinement")])

    gets = named("engine.cache_store.get")
    puts = [r for r in named("engine.cache_store.put", everything=True)
            if r["attrs"].get("written")]
    out["engine.cache_store.get_ms_p50"] = median(_ms(gets))
    out["engine.cache_store.get_ms_p99"] = percentile(_ms(gets), 99)
    out["engine.cache_store.put_ms_p50"] = median(_ms(puts))
    out["engine.cache_store.put_bytes"] = mean(
        [r["attrs"]["bytes"] for r in puts])
    out["serve.wire.decode_ms_p50"] = median(_ms(named("serve.wire.decode")))
    out["serve.wire.encode_ms_p50"] = median(_ms(named("serve.wire.encode")))
    return out


def solve_ref_ratio(tracer: Tracer, records: list[dict], since: float,
                    repeats: int = 5) -> float:
    """Median sweep wall of the most common (order, panel width) among
    the traced direct solves, over a ``scipy.linalg.solve_triangular``
    pair on the same ``R`` and width, timed now."""
    import scipy.linalg as sla

    groups = defaultdict(list)
    for r in records:
        if (r["name"] == "core.solve" and r["start"] >= since
                and r["attrs"]["kind"] != "indefinite"):
            groups[(r["attrs"]["order"], r["attrs"]["nrhs"])].append(
                r["end"] - r["start"])
    groups = {k: v for k, v in groups.items() if k in tracer.solve_refs}
    if not groups:
        return 0.0
    key = max(groups, key=lambda k: len(groups[k]))
    r = np.asarray(tracer.solve_refs[key])
    b = np.random.default_rng(0).standard_normal(key)
    ref = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        y = sla.solve_triangular(r, b, lower=False, trans=1,
                                 check_finite=False)
        sla.solve_triangular(r, y, lower=False, check_finite=False)
        ref.append(time.perf_counter() - t0)
    return median(groups[key]) / median(ref)
