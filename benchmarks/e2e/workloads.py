"""One workload of the end-to-end benchmark, run in a fresh process.

``run.py`` starts this file once per workload, with the BLAS thread pools
pinned, a private ``REPRO_CACHE_DIR`` and ``TMPDIR``, and a JSON config
as the only argument; the result is written as JSON to the path the
config names.  A run generates its inputs from the seed, sets up
``SETUP_REPEATS`` times (keeping the last), drives the load from one
generator thread, checks every answer, and tears down.
"""

import time

CHILD_START = time.perf_counter()

import asyncio  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import queue  # noqa: E402
import select  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import zlib  # noqa: E402
from collections import Counter, defaultdict  # noqa: E402

import numpy as np  # noqa: E402
import scipy.linalg as sla  # noqa: E402

import repro.engine as engine  # noqa: E402
from repro import obs  # noqa: E402
from repro.engine import (  # noqa: E402
    CacheStore,
    FactorizationCache,
    set_default_cache,
)
from repro.parallel.transport import SEGMENT_PREFIX  # noqa: E402
from repro.serve import SolverService  # noqa: E402
from repro.toeplitz import (  # noqa: E402
    SymmetricBlockToeplitz,
    ar_block_toeplitz,
)

#: "import repro" share of set-up: from process start to here.
IMPORT_S = time.perf_counter() - CHILD_START

import tracing  # noqa: E402
from common import (  # noqa: E402
    AnswerCheck,
    beyond,
    cpu_seconds,
    mean,
    median,
    peak_rss_mb,
    percentile,
    poisson_offsets,
    sleep_until,
    zipf_weights,
)
from spec import ETA_LIMIT, PER_LAYER, WORKLOADS  # noqa: E402

#: Set-ups per run; ``setup_s`` reports their median, and the last one
#: serves the measured phases.
SETUP_REPEATS = 3
#: Share of a traced run spent on the untraced reference phase that
#: ``bench.trace_overhead_pct`` compares against.
REFERENCE_SHARE = 0.3
#: Share of a closed window discarded before throughput is counted.
WINDOW_WARMUP = 0.1
#: Distinct right-hand sides the serve workloads draw from.
RHS_POOL = 256
SERVER = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "server.py")


@dataclasses.dataclass
class Request:
    i: int
    op: str
    operator: object
    b: np.ndarray
    due: float
    sent: float = 0.0
    done: float = 0.0
    x: np.ndarray | None = None
    error: str = ""
    future: object = None
    batch_id: int | None = None
    queue_s: float = 0.0
    serve_start: float = 0.0
    serve_wall: float = 0.0
    exec_wall: float = 0.0
    exec_nrhs: int = 1
    bytes_out: int = 0
    bytes_in: int = 0
    extra: dict = dataclasses.field(default_factory=dict)

    def take_serve_response(self, record, execution) -> None:
        """Copy a ``ServeRecord``/``ExecutionRecord`` pair (objects
        in-process, dicts off the wire) onto the request."""
        get = (record.get if isinstance(record, dict)
               else lambda k: getattr(record, k))
        self.batch_id = get("batch_id")
        self.queue_s = get("queue_seconds")
        self.serve_start = get("start")
        self.serve_wall = get("wall_seconds")
        if execution is not None:
            get = (execution.get if isinstance(execution, dict)
                   else lambda k: getattr(execution, k))
            self.exec_wall = get("wall_seconds")
            self.exec_nrhs = get("nrhs")


@dataclasses.dataclass
class PhaseResult:
    """One measured pass over a workload's load phases."""

    latencies: list          # seconds, the requests latency metrics cover
    throughput: float        # requests per second
    completed: int
    cpu_s: float
    lag: list                # generator lateness, seconds
    requests: list           # every Request of the pass
    snapshots: dict = dataclasses.field(default_factory=dict)


#: Largest 1-norm condition number a singular-minor draw may have.  At
#: seed 0 a draw with κ₁ ≈ 1.4e7 came back from ``indefinite+refine``
#: flagged converged with η ≈ 1.4e-8 while its residual grew each sweep;
#: the workload measures the §8 path where it is expected to succeed.
SINGULAR_MINOR_MAX_COND = 1e6


def singular_minor(n: int, rng) -> SymmetricBlockToeplitz:
    """``repro.singular_minor_toeplitz``'s construction — a constant
    leading pair makes the 2 × 2 leading minor exactly singular, the rest
    of the first row is uniform in (−0.9, 0.9) — with each draw's
    conditioning checked on SciPy's dense Toeplitz, which assembles a few
    hundred times faster than the operator's own ``dense()``."""
    while True:
        row = np.empty(n)
        row[:2] = 1.0
        row[2:] = rng.uniform(-0.9, 0.9, size=n - 2)
        dense = sla.toeplitz(row)
        lu, _ = sla.lu_factor(dense, check_finite=False)
        rcond, _ = sla.lapack.dgecon(lu, np.abs(dense).sum(axis=0).max())
        if rcond * SINGULAR_MINOR_MAX_COND >= 1.0:
            return SymmetricBlockToeplitz.from_first_row(row)


def shm_segments() -> set:
    try:
        return {f for f in os.listdir("/dev/shm")
                if f.startswith(SEGMENT_PREFIX)}
    except FileNotFoundError:
        return set()


class Workload:
    """Shared run protocol; subclasses supply inputs, set-up and load."""

    def __init__(self, cfg: dict):
        self.name = cfg["workload"]
        self.cfg = cfg
        self.tail = WORKLOADS[self.name]["tail"]
        self.seconds = cfg["seconds"]
        self.work = cfg["work"]
        self.seed = cfg["seed"]
        self.rng = np.random.default_rng(
            [self.seed, zlib.crc32(self.name.encode())])
        self.check = AnswerCheck()
        self.failures = Counter()
        self.attempted = 0
        self.tracer = None
        #: Whether the span wrappers are installed right now.
        self.traced = False
        self._ids = iter(range(10**9))

    # -- hooks ----------------------------------------------------------
    def generate(self) -> None:
        raise NotImplementedError

    def setup(self) -> None:
        raise NotImplementedError

    def teardown(self) -> None:
        pass

    def after_teardown(self) -> None:
        pass

    def phases(self, share: float) -> PhaseResult:
        raise NotImplementedError

    def start_tracing(self):
        """Install the span wrappers; returns the function that removes
        them."""
        undo = tracing.instrument(self.tracer)
        self.traced = True

        def stop():
            undo()
            self.traced = False
        return stop

    def peak_rss(self) -> float:
        return max(peak_rss_mb(), peak_rss_mb(children=True))

    def own_layer_metrics(self, phase: PhaseResult) -> dict:
        return {}

    def trace_records(self, phase: PhaseResult) -> list:
        return self.tracer.records()

    def ref_ratio(self, records, since) -> float:
        return tracing.solve_ref_ratio(self.tracer, records, since)

    # -- protocol -------------------------------------------------------
    def fail(self, why: str, count: int = 1) -> None:
        if count:
            self.failures[why] += count

    def verify(self, reqs: list) -> None:
        """Check every answer's backward error, then drop the answers."""
        groups = defaultdict(list)
        for r in reqs:
            if r.error:
                continue
            if r.x is None:
                r.error = "no answer"
                continue
            groups[id(r.operator)].append(r)
        for rs in groups.values():
            etas = self.check.etas(rs[0].operator, [r.b for r in rs],
                                   [r.x for r in rs])
            for r, eta in zip(rs, etas):
                r.x = None
                if not eta <= ETA_LIMIT:
                    r.error = "wrong answer"
        for r in reqs:
            if r.error:
                self.fail(r.error)

    def run(self) -> dict:
        trace = bool(self.cfg["trace"])
        t0 = time.perf_counter()
        self.generate()
        self.input_gen_s = time.perf_counter() - t0
        undo = None
        if trace:
            self.tracer = tracing.Tracer()
            undo = self.start_tracing()
        setups = []
        try:
            for k in range(SETUP_REPEATS):
                if k:
                    self.teardown()
                t0 = time.perf_counter()
                self.setup()
                setups.append(time.perf_counter() - t0)
            if undo is not None:
                undo()
                undo = None
            if trace:
                reference = self.phases(REFERENCE_SHARE)
                undo = self.start_tracing()
                since = time.perf_counter()
                phase = self.phases(1.0 - REFERENCE_SHARE)
                undo()
                undo = None
            else:
                phase = self.phases(1.0)
        finally:
            if undo is not None:
                undo()
            self.teardown()
        self.after_teardown()

        failed = sum(self.failures.values())
        lat_ms = [1e3 * v for v in phase.latencies]
        result = {
            "workload": self.name, "seed": self.seed,
            "seconds": self.seconds, "trace": trace,
            "attempted": self.attempted, "failed": failed,
            "correct": failed == 0 and self.attempted > 0,
            "failures": dict(self.failures),
            "details": {
                "error_rate": failed / max(1, self.attempted),
                "check.eta_max": self.check.eta_max,
                "check.answers": self.check.checked,
                "samples": len(phase.latencies),
                "tail_percentile": self.tail,
                "tail_samples": beyond(len(phase.latencies), self.tail),
                "gen_lag_p99_ms": 1e3 * percentile(phase.lag, 99),
                "input_gen_s": self.input_gen_s,
                "import_s": IMPORT_S,
                "setup_repeats_s": setups,
            },
            "reported": {
                "latency_p50_ms": median(lat_ms),
                "latency_tail_ms": percentile(lat_ms, self.tail),
                "throughput_rps": phase.throughput,
                "cpu_ms_per_req": (1e3 * phase.cpu_s
                                   / max(1, phase.completed)),
            },
        }
        if trace:
            result["metrics"] = self.layer_metrics(phase, since, reference)
        else:
            result["metrics"] = {
                "setup_s": IMPORT_S + median(setups),
                "peak_rss_mb": self.peak_rss(),
            }
        return result

    def layer_metrics(self, phase: PhaseResult, since: float,
                      reference: PhaseResult) -> dict:
        records = self.trace_records(phase)
        tracing.add_self_times(records)
        tracing.add_model_flops(records)
        obs.write_jsonl(records, self.cfg["trace_out"])
        m = {name: 0.0 for name, *_ in PER_LAYER}
        m.update(tracing.span_metrics(records, since))
        m["core.solve.ref_ratio"] = self.ref_ratio(records, since)
        ok = [r for r in phase.requests if not r.error]
        execs = {}
        for r in ok:
            execs[r.i if r.batch_id is None else r.batch_id] = r
        m["engine.execute.ms_p50"] = median(
            [1e3 * r.exec_wall for r in execs.values()])
        m["engine.execute.nrhs_mean"] = mean(
            [r.exec_nrhs for r in execs.values()])
        m.update(self.own_layer_metrics(phase))
        m["bench.unattributed_pct"] = tracing.unattributed_pct(records)
        m["bench.samples"] = float(len(phase.latencies))
        m["bench.gen_lag_p99_ms"] = 1e3 * percentile(phase.lag, 99)
        m["bench.input_gen_s"] = self.input_gen_s
        m["check.eta_max"] = self.check.eta_max
        ref = median(reference.latencies)
        m["bench.trace_overhead_pct"] = (
            100.0 * (median(phase.latencies) / ref - 1.0) if ref else 0.0)
        return m


# ----------------------------------------------------------------------
# Closed loop: one outstanding request, call to return
# ----------------------------------------------------------------------
class ClosedLoop(Workload):
    """Each request is one ``engine.solve`` on a fresh operator."""

    def setup(self) -> None:
        self.cache = FactorizationCache(max_entries=2)
        set_default_cache(self.cache)
        self.next = 0

    def accept(self, req: Request, res) -> None:
        """Workload-specific checks of a returned result."""

    def phases(self, share: float) -> PhaseResult:
        cpu0 = cpu_seconds()
        start = prev = time.perf_counter()
        end = start + share * self.seconds
        reqs, lag = [], []
        while self.next < len(self.inputs) and time.perf_counter() < end:
            op, b, opts = self.inputs[self.next]
            req = Request(self.next, "", op, b, due=time.perf_counter())
            self.next += 1
            self.attempted += 1
            reqs.append(req)
            req.sent = time.perf_counter()
            lag.append(req.sent - prev)
            try:
                if self.traced:
                    with self.tracer.request(req.i):
                        res = engine.solve(op, b, cache=self.cache, **opts)
                else:
                    res = engine.solve(op, b, cache=self.cache, **opts)
            except Exception as exc:  # noqa: BLE001 - counted, not fatal
                req.error = type(exc).__name__
                prev = time.perf_counter()
                continue
            req.done = prev = time.perf_counter()
            req.x = res.x
            req.exec_wall = res.record.wall_seconds
            req.exec_nrhs = res.record.nrhs
            self.accept(req, res)
            del res     # drops the factorization held by its detail
        cpu = cpu_seconds() - cpu0
        self.verify(reqs)
        lat = [r.done - r.sent for r in reqs if not r.error]
        return PhaseResult(
            latencies=lat,
            throughput=len(lat) / sum(lat) if lat else 0.0,
            completed=len(lat), cpu_s=cpu, lag=lag, requests=reqs)


class ColdSolve(ClosedLoop):
    #: Request mix, repeated: 3 AR, 1 AR regrouped to m_s=16 (§6.5),
    #: 1 singular-minor (§8 perturb + refine).
    PATTERN = ("ar", "ar", "ar", "regrouped", "singular")
    #: Requests per second the input pool is sized for (measured rate
    #: is ~8/s; the run ends early if a faster host drains the pool).
    POOL_RATE = 12

    def generate(self) -> None:
        count = int(self.POOL_RATE * self.seconds) + len(self.PATTERN)
        self.inputs = []
        for i in range(count):
            kind = self.PATTERN[i % len(self.PATTERN)]
            if kind == "singular":
                op = singular_minor(512, self.rng)
            else:
                op = ar_block_toeplitz(
                    512, 4, seed=int(self.rng.integers(2**31)))
            opts = {"block_size": 16} if kind == "regrouped" else {}
            self.inputs.append((op, self.rng.standard_normal(op.order),
                                opts))


class Distributed(ClosedLoop):
    POOL_RATE = 4

    def generate(self) -> None:
        count = int(self.POOL_RATE * self.seconds) + 2
        self.inputs = []
        for i in range(count):
            op = ar_block_toeplitz(256, 4, seed=int(self.rng.integers(2**31)))
            opts = {"nproc": 2, "backend": "multiprocess",
                    "schedule": ("bulk", "lookahead")[i % 2]}
            self.inputs.append((op, self.rng.standard_normal(op.order),
                                opts))
        self.shm_before = shm_segments()

    def accept(self, req: Request, res) -> None:
        fact = res.detail
        if (res.algorithm != "spd-schur" or res.fallback_used
                or getattr(fact, "backend", "") != "multiprocess"
                or fact.last_solve_backend != "multiprocess"):
            req.error = "left the multiprocess backend"
            return
        req.extra.update(
            factor_s=fact.run.wall_seconds,
            solve_s=fact.last_solve_run.wall_seconds,
            shift_words=sum(fact.run.words_by_rank().values()),
            broadcast_words=sum(fact.run.broadcast_words_by_rank().values()))

    def after_teardown(self) -> None:
        self.fail("leaked /dev/shm segment",
                  len(shm_segments() - self.shm_before))

    def own_layer_metrics(self, phase: PhaseResult) -> dict:
        ok = [r for r in phase.requests if not r.error]
        return {
            "parallel.factor_ms_p50": median(
                [1e3 * r.extra["factor_s"] for r in ok]),
            "parallel.solve_ms_p50": median(
                [1e3 * r.extra["solve_s"] for r in ok]),
            "parallel.startup_ms_p50": median(
                [1e3 * (r.done - r.sent - r.extra["factor_s"]
                        - r.extra["solve_s"]) for r in ok]),
            "parallel.shift_words": mean(
                [r.extra["shift_words"] for r in ok]),
            "parallel.broadcast_words": mean(
                [r.extra["broadcast_words"] for r in ok]),
        }


# ----------------------------------------------------------------------
# Served workloads: open-loop arrivals, then a closed window
# ----------------------------------------------------------------------
class Served(Workload):
    #: Share of each pass spent in the open-loop phase (the rest is the
    #: closed window).
    open_share = 0.75
    #: Open-loop arrivals per second and closed-window width.
    rate: float
    window: int

    def pick(self) -> tuple[str, int]:
        k = int(self.rng.choice(len(self.weights), p=self.weights))
        return self.names[k], int(self.rng.integers(RHS_POOL))

    def open_events(self, duration: float) -> list:
        """(offset, name, rhs index, operator to register first)."""
        return [(off, *self.pick(), None)
                for off in poisson_offsets(self.rng, self.rate, duration)]

    def request(self, name: str, j: int, due: float) -> Request:
        return Request(next(self._ids), name, self.by_name[name],
                       self.rhs[j], due=due)

    def use_hot_operators(self) -> None:
        """serve_hot's and serve_tcp's inputs: four warm operators with
        50/25/15/10 popularity and a pool of right-hand sides.  The
        operators come from a stream both workloads share."""
        rng = np.random.default_rng([self.seed, 2048])
        ops = [ar_block_toeplitz(512, 4, seed=int(rng.integers(2**31)))
               for _ in range(4)]
        self.names = [f"op{k}" for k in range(len(ops))]
        self.by_name = dict(zip(self.names, ops))
        self.weights = np.array([0.50, 0.25, 0.15, 0.10])
        self.rhs = [self.rng.standard_normal(ops[0].order)
                    for _ in range(RHS_POOL)]

    # -- transport hooks ------------------------------------------------
    def snapshot(self) -> dict:
        """Service counters; ``cpu_s`` is CPU outside this process."""
        raise NotImplementedError

    def run_open(self, events: list):
        """Send ``events`` on schedule and wait for every answer; returns
        (requests, generator lateness)."""
        raise NotImplementedError

    def run_closed(self, duration: float):
        """Keep ``self.window`` requests outstanding for ``duration``;
        returns (requests, completions per second after the warm-up)."""
        raise NotImplementedError

    def phases(self, share: float) -> PhaseResult:
        duration = share * self.seconds
        open_s = self.open_share * duration
        events = self.open_events(open_s)
        before = self.snapshot()
        cpu0 = cpu_seconds()
        open_reqs, lag = self.run_open(events)
        closed_reqs, rps = self.run_closed(duration - open_s)
        after = self.snapshot()
        cpu = cpu_seconds() - cpu0 + after["cpu_s"] - before["cpu_s"]
        self.parse(open_reqs + closed_reqs)

        reqs = open_reqs + closed_reqs
        for r in open_reqs:
            r.extra["open"] = True
        self.verify(reqs)
        return PhaseResult(
            latencies=[r.done - r.due for r in open_reqs if not r.error],
            throughput=rps,
            completed=sum(1 for r in reqs if not r.error), cpu_s=cpu,
            lag=lag, requests=reqs,
            snapshots={"before": before, "after": after})

    def parse(self, reqs: list) -> None:
        """Turn replies received during the phase into answers."""

    def own_layer_metrics(self, phase: PhaseResult) -> dict:
        """Dispatcher and memory-cache numbers from the ``ServeStats`` /
        ``CacheStats`` snapshots (dicts) around the pass."""
        s0, s1 = (phase.snapshots[k]["serve"] for k in ("before", "after"))
        c0, c1 = (phase.snapshots[k]["cache"] for k in ("before", "after"))
        queue_ms = [1e3 * r.queue_s for r in phase.requests
                    if not r.error and r.extra.get("open")]
        batches = s1["batches"] - s0["batches"]
        lookups = (c1["hits"] - c0["hits"]) + (c1["misses"] - c0["misses"])
        return {
            "serve.queue_wait_ms_p50": median(queue_ms),
            "serve.queue_wait_ms_p99": percentile(queue_ms, 99),
            "serve.batch_k_mean": ((s1["coalesced_requests"]
                                    - s0["coalesced_requests"]) / batches
                                   if batches else 0.0),
            "serve.overloads": float(s1["overloads"] - s0["overloads"]),
            "serve.deadline_expirations": float(
                s1["deadline_expirations"] - s0["deadline_expirations"]),
            "engine.cache.hit_ratio": ((c1["hits"] - c0["hits"]) / lookups
                                       if lookups else 0.0),
            "engine.cache.evictions": float(c1["evictions"]
                                            - c0["evictions"]),
            "engine.cache.bytes_charged": float(c1["current_bytes"]),
        }

    def add_request_spans(self, phase: PhaseResult, *,
                          remote: bool = False) -> dict:
        """A ``request`` root per answered open-loop request, holding its
        generator lateness and, from its ``ServeRecord``, its queue wait
        and execution (under a ``serve.server`` span when the service ran
        in another process).  Returns request id -> root span id."""
        roots = {}
        for r in phase.requests:
            if r.error or not r.extra.get("open"):
                continue
            root = roots[r.i] = self.tracer.add("request", r.due, r.done,
                                                request_id=r.i)
            self.tracer.add("bench.send", r.due, r.sent, parent=root,
                            request_id=r.i)
            served = root
            if remote:
                served = self.tracer.add(
                    "serve.server", r.serve_start,
                    r.serve_start + r.serve_wall, parent=root,
                    request_id=r.i, batch_id=r.batch_id)
            dispatched = r.serve_start + r.queue_s
            self.tracer.add("serve.queue", r.serve_start, dispatched,
                            parent=served, request_id=r.i,
                            batch_id=r.batch_id)
            self.tracer.add("serve.execute", dispatched,
                            r.serve_start + r.serve_wall, parent=served,
                            request_id=r.i, batch_id=r.batch_id)
        return roots


class InProcess(Served):
    """Requests go straight to a ``SolverService`` in this process."""

    def submit(self, req: Request, on_done=None) -> None:
        self.attempted += 1
        b = req.b[:]     # a fresh view: the trace maps each array to a request
        tracing.current_request.set(req.i)
        req.sent = time.perf_counter()
        try:
            fut = self.service.submit(req.op, b)
        except Exception as exc:  # noqa: BLE001 - refused, counted
            req.error = type(exc).__name__
            req.done = time.perf_counter()
            if on_done is not None:
                on_done(req)
            return

        def stamp(_fut):
            req.done = time.perf_counter()
            if on_done is not None:
                on_done(req)
        req.future = fut
        fut.add_done_callback(stamp)

    @staticmethod
    def collect(reqs: list) -> None:
        for r in reqs:
            if r.future is None:
                continue
            try:
                resp = r.future.result(timeout=120)
            except Exception as exc:  # noqa: BLE001 - counted
                r.error = type(exc).__name__
                continue
            finally:
                r.future = None
            r.x = resp.x
            r.take_serve_response(resp.record, resp.execution)

    def run_open(self, events: list):
        reqs, lag = [], []
        t0 = time.perf_counter() + 0.005
        for off, name, j, new_op in events:
            due = t0 + off
            sleep_until(due)
            lag.append(time.perf_counter() - due)
            if new_op is not None:
                self.service.register(name, new_op, cache="persistent")
                self.by_name[name] = new_op
            req = self.request(name, j, due)
            self.submit(req)
            reqs.append(req)
        self.collect(reqs)
        return reqs, lag

    def run_closed(self, duration: float):
        done = queue.SimpleQueue()
        reqs = []

        def send():
            req = self.request(*self.pick(), due=time.perf_counter())
            reqs.append(req)
            self.submit(req, on_done=done.put)

        start = time.perf_counter()
        warm = start + WINDOW_WARMUP * duration
        end = start + duration
        for _ in range(self.window):
            send()
        counted, outstanding = 0, self.window
        while outstanding:
            req = done.get(timeout=120)
            outstanding -= 1
            if warm <= req.done < end:
                counted += 1
            if time.perf_counter() < end:
                send()
                outstanding += 1
        self.collect(reqs)
        return reqs, counted / (end - warm)

    def snapshot(self) -> dict:
        snap = {"cpu_s": 0.0,
                "serve": dataclasses.asdict(self.service.stats()),
                "cache": dataclasses.asdict(self.cache.stats())}
        if getattr(self, "store", None) is not None:
            snap["store"] = dataclasses.asdict(self.store.stats())
        return snap

    def teardown(self) -> None:
        service = getattr(self, "service", None)
        if service is not None:
            service.close()
            self.service = None

    def trace_records(self, phase: PhaseResult) -> list:
        self.add_request_spans(phase)
        return self.tracer.records()


class ServeHot(InProcess):
    open_share = 0.7
    rate = 250.0
    window = 64

    def generate(self) -> None:
        self.use_hot_operators()

    def setup(self) -> None:
        self.cache = FactorizationCache()
        set_default_cache(self.cache)
        self.service = SolverService(cache=self.cache)
        for name in self.names:
            self.service.register(name, self.by_name[name], warm=True)

    def phases(self, share: float) -> PhaseResult:
        phase = super().phases(share)
        c0 = phase.snapshots["before"]["cache"]
        c1 = phase.snapshots["after"]["cache"]
        # Set-up warmed every operator: any miss here is a factorization.
        self.fail("factorization after set-up", c1["misses"] - c0["misses"])
        return phase


class CacheChurn(InProcess):
    open_share = 0.8
    rate = 80.0
    window = 16
    #: Operators registered (cold factor + store publish) per second.
    new_per_second = 2.0
    stored = 16
    zipf_s = 1.3

    def generate(self) -> None:
        """Inputs, and the store a restarted service finds: every stored
        operator factored and published once."""
        def op():
            return ar_block_toeplitz(256, 4,
                                     seed=int(self.rng.integers(2**31)))
        ops = [op() for _ in range(self.stored)]
        self.names = [f"op{k}" for k in range(self.stored)]
        self.by_name = dict(zip(self.names, ops))
        self.weights = zipf_weights(self.stored, self.zipf_s)
        count = int(self.new_per_second * self.open_share * self.seconds) + 2
        self.new_ops = [op() for _ in range(count)]
        self.rhs = [self.rng.standard_normal(ops[0].order)
                    for _ in range(RHS_POOL)]
        self.store_dir = tempfile.mkdtemp(prefix="store-", dir=self.work)
        self.store = CacheStore(self.store_dir)
        for operator in ops:
            engine.factor(engine.plan(operator, cache="persistent"),
                          cache=FactorizationCache(max_entries=1),
                          store=self.store)

    def setup(self) -> None:
        """A service restart over the filled store: the four hottest
        operators load from disk, the rest on first use."""
        self.store = CacheStore(self.store_dir)
        self.cache = FactorizationCache(max_entries=4)
        set_default_cache(self.cache)
        self.service = SolverService(cache=self.cache, store=self.store)
        for k, name in enumerate(self.names):
            self.service.register(name, self.by_name[name],
                                  cache="persistent", warm=k < 4)

    def after_teardown(self) -> None:
        shutil.rmtree(self.store_dir, ignore_errors=True)

    def open_events(self, duration: float) -> list:
        events = super().open_events(duration)
        step = 1.0 / self.new_per_second
        for k in range(int(duration * self.new_per_second)):
            if not self.new_ops:
                break
            events.append(((k + 0.5) * step, f"new{len(self.new_ops)}",
                           int(self.rng.integers(RHS_POOL)),
                           self.new_ops.pop()))
        return sorted(events, key=lambda e: e[0])

    def own_layer_metrics(self, phase: PhaseResult) -> dict:
        m = super().own_layer_metrics(phase)
        d0 = phase.snapshots["before"]["store"]
        d1 = phase.snapshots["after"]["store"]
        hits = d1["disk_hits"] - d0["disk_hits"]
        lookups = hits + d1["disk_misses"] - d0["disk_misses"]
        m["engine.cache_store.hit_ratio"] = hits / lookups if lookups else 0.0
        return m


# ----------------------------------------------------------------------
# TCP: a server subprocess, one single-threaded asyncio client
# ----------------------------------------------------------------------
class _Conn:
    def __init__(self, reader, writer):
        self.reader = reader
        self.writer = writer
        self.task = None


class ServeTCP(Served):
    rate = 60.0
    window = 16
    connections = 2

    def generate(self) -> None:
        self.use_hot_operators()
        self.encoded = [json.dumps(b.tolist()).encode() for b in self.rhs]
        self.ops_file = os.path.join(self.work, "operators.npz")
        np.savez(self.ops_file, **{n: op.top_blocks
                                   for n, op in self.by_name.items()})
        self.loop = asyncio.new_event_loop()
        self.server = None
        self.server_log = os.path.join(self.work, "server.log")
        self.conns = []
        self.final = {}

    # -- server process -------------------------------------------------
    def _read_server(self, timeout: float = 120.0) -> dict:
        ready, _, _ = select.select([self.server.stdout], [], [], timeout)
        line = self.server.stdout.readline() if ready else b""
        if not line:
            raise RuntimeError("solver server stopped answering")
        return json.loads(line)

    def command(self, cmd: str) -> dict | None:
        self.server.stdin.write(cmd.encode() + b"\n")
        self.server.stdin.flush()
        return self._read_server() if cmd in ("mark", "stop") else None

    def setup(self) -> None:
        cmd = [sys.executable, SERVER, self.ops_file]
        if self.tracer is not None:
            cmd += ["--trace", os.path.join(self.work, "server.jsonl")]
        with open(self.server_log, "ab") as log:
            self.server = subprocess.Popen(
                cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                stderr=log)
        port = self._read_server()["port"]
        self.conns = self.loop.run_until_complete(self._connect(port))

    async def _connect(self, port: int) -> list:
        self.arrivals = asyncio.Queue()
        self.replies = []
        conns = []
        for c in range(self.connections):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", port, limit=2**22)
            conn = _Conn(reader, writer)
            conn.task = asyncio.ensure_future(self._receive(conn, c))
            conns.append(conn)
        return conns

    async def _receive(self, conn: _Conn, c: int) -> None:
        while True:
            line = await conn.reader.readline()
            if not line:
                return
            self.replies.append((time.perf_counter(), line))
            self.arrivals.put_nowait(c)

    async def _disconnect(self) -> None:
        """Half-close each connection and wait until the server has
        closed its side, so no connection handler is still running when
        the server shuts down; then close ours."""
        for conn in self.conns:
            conn.writer.write_eof()
        for conn in self.conns:
            await asyncio.wait_for(conn.task, 30)
            conn.writer.close()
            try:
                await conn.writer.wait_closed()
            except (ConnectionError, OSError):
                pass
        self.conns = []

    def teardown(self) -> None:
        """Client connections first, then the server, with a timeout."""
        if self.server is None:
            return
        try:
            self.loop.run_until_complete(self._disconnect())
            self.final = self.command("stop")
            self.server.wait(timeout=30)
        finally:
            if self.server.poll() is None:
                self.server.kill()
                self.server.wait(timeout=30)
            for pipe in (self.server.stdin, self.server.stdout):
                pipe.close()
            self.server = None

    def after_teardown(self) -> None:
        self.loop.close()
        with open(self.server_log, encoding="utf-8", errors="replace") as fh:
            text = fh.read().strip()
        if text:
            print(f"solver server stderr:\n{text}", file=sys.stderr)
            self.fail("server wrote to stderr")

    def start_tracing(self):
        if self.server is not None:
            self.command("trace on")
        return lambda: self.command("trace off")

    def peak_rss(self) -> float:
        return self.final["peak_rss_mb"]

    # -- load -----------------------------------------------------------
    def line(self, req: Request) -> bytes:
        return (b'{"id": %d, "op": "%s", "b": ' % (req.i, req.op.encode())
                + self.encoded[req.extra["rhs"]] + b"}\n")

    async def _send(self, req: Request, c: int) -> None:
        line = self.line(req)
        req.bytes_out = len(line)
        self.attempted += 1
        req.sent = time.perf_counter()
        self.conns[c].writer.write(line)
        await self.conns[c].writer.drain()

    def request(self, name: str, j: int, due: float) -> Request:
        req = super().request(name, j, due)
        req.extra["rhs"] = j
        return req

    async def _open_loop(self, events: list):
        reqs, lag = [], []
        t0 = time.perf_counter() + 0.005
        for off, name, j, _ in events:
            due = t0 + off
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            lag.append(time.perf_counter() - due)
            req = self.request(name, j, due)
            reqs.append(req)
            await self._send(req, req.i % self.connections)
        for _ in reqs:
            await asyncio.wait_for(self.arrivals.get(), 120)
        return reqs, lag

    async def _closed_window(self, duration: float):
        reqs = []
        start = time.perf_counter()
        warm = start + WINDOW_WARMUP * duration
        end = start + duration

        async def send(c):
            req = self.request(*self.pick(), due=time.perf_counter())
            reqs.append(req)
            await self._send(req, c)

        for k in range(self.window):
            await send(k % self.connections)
        counted, outstanding = 0, self.window
        while outstanding:
            c = await asyncio.wait_for(self.arrivals.get(), 120)
            outstanding -= 1
            now = time.perf_counter()
            if warm <= now < end:
                counted += 1
            if now < end:
                await send(c)
                outstanding += 1
        return reqs, counted / (end - warm)

    def run_open(self, events: list):
        return self.loop.run_until_complete(self._open_loop(events))

    def run_closed(self, duration: float):
        return self.loop.run_until_complete(self._closed_window(duration))

    def snapshot(self) -> dict:
        return self.command("mark")

    def parse(self, reqs: list) -> None:
        by_id = {r.i: r for r in reqs}
        for t, line in self.replies:
            msg = json.loads(line)
            r = by_id[msg["id"]]
            r.done, r.bytes_in = t, len(line)
            if msg.get("ok"):
                r.x = np.asarray(msg["x"], dtype=np.float64)
                r.take_serve_response(msg["record"], msg.get("execution"))
            else:
                r.error = msg.get("error", "error reply")
        self.replies = []
        for r in reqs:
            if not r.done and not r.error:
                r.error = "no reply"

    # -- trace ----------------------------------------------------------
    def own_layer_metrics(self, phase: PhaseResult) -> dict:
        m = super().own_layer_metrics(phase)
        ok = [r for r in phase.requests if not r.error]
        m["serve.wire.overhead_ms_p50"] = median(
            [1e3 * (r.done - r.sent - r.serve_wall) for r in ok
             if r.extra.get("open")])
        m["serve.wire.bytes_per_req"] = mean(
            [r.bytes_out + r.bytes_in for r in ok])
        return m

    def ref_ratio(self, records, since) -> float:
        return self.final.get("ref_ratio", 0.0)

    def trace_records(self, phase: PhaseResult) -> list:
        roots = self.add_request_spans(phase, remote=True)
        records = self.tracer.records()
        offset = 1 + max((rec["id"] for rec in records), default=0)
        server = obs.read_jsonl(self.final["trace"])
        for rec in server:
            rec["id"] += offset
            if rec["parent"] is not None:
                rec["parent"] += offset
            elif rec["name"].startswith("serve.wire."):
                rec["parent"] = roots.get(rec["attrs"].get("request_id"))
        return records + server


WORKLOAD_TYPES = {
    "cold_solve": ColdSolve,
    "serve_hot": ServeHot,
    "serve_tcp": ServeTCP,
    "cache_churn": CacheChurn,
    "distributed": Distributed,
}


def main() -> int:
    cfg = json.loads(sys.argv[1])
    obs.disable()
    result = WORKLOAD_TYPES[cfg["workload"]](cfg).run()
    with open(cfg["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh, allow_nan=False)
    return 0


if __name__ == "__main__":
    sys.exit(main())
