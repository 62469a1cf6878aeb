"""Execution: run a :class:`~repro.engine.SolverPlan` against RHS data.

The engine is a small algorithm registry plus two verbs:

* :func:`factor` — produce (or fetch from cache) the factorization the
  plan calls for;
* :func:`execute` — factor + solve, with automatic fallback to the
  plan's armed fallback algorithm on SPD breakdown, returning an
  :class:`ExecutionResult` that records what actually ran.

Core algorithms (``spd-schur``, ``indefinite+refine``, ``gko``, ``gs``)
register here; the baselines register themselves from
:mod:`repro.baselines`, so ``algorithms()`` gives benchmarks one uniform
iteration surface.  A registered ``factor``/``solve`` does only its own
numerics: the engine wraps every algorithm once with the cache tiers
(the plan's ``cache`` axis), reduced-precision admission and recovery
(keyed on the factor's own ``precision``) and the ``solve`` span.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import repro.obs as obs
from repro.core.packed import mapped_buffers
from repro.engine.cache import FactorizationCache, default_cache
from repro.engine.cache_store import CacheStore, default_store
from repro.engine.plan import SolverPlan
from repro.engine.plan import plan as make_plan
from repro.errors import InvalidOptionError, NotPositiveDefiniteError

__all__ = [
    "Algorithm",
    "ExecutionRecord",
    "ExecutionResult",
    "FactorResult",
    "algorithms",
    "execute",
    "execute_many",
    "factor",
    "get_algorithm",
    "register_algorithm",
    "solve",
]


@dataclass(frozen=True)
class Algorithm:
    """One registered solver algorithm.

    ``factor(op, plan)`` returns a factorization object with a
    ``solve`` method (or is ``None`` for factorization-free methods);
    ``solve(op, b, plan, factorization, **kwargs)`` returns
    ``(x, detail)`` where ``detail`` is the algorithm's native result
    object (factorization, refinement trace, iteration record, …).
    """

    name: str
    solve: Callable[..., tuple[np.ndarray, Any]]
    factor: Callable[..., Any] | None = None
    description: str = ""

    @property
    def cacheable(self) -> bool:
        return self.factor is not None


_REGISTRY: dict[str, Algorithm] = {}


def register_algorithm(name: str, *, solve, factor=None,
                       description: str = "",
                       overwrite: bool = False) -> Algorithm:
    """Register a solver under ``name`` (see :class:`Algorithm`)."""
    if name in _REGISTRY and not overwrite:
        raise InvalidOptionError(
            f"algorithm {name!r} is already registered")
    algo = Algorithm(name=name, solve=solve, factor=factor,
                     description=description)
    _REGISTRY[name] = algo
    return algo


def _ensure_registered() -> None:
    """Pull in the modules that register algorithms on import."""
    import repro.baselines  # noqa: F401  (registers its solvers)


def get_algorithm(name: str) -> Algorithm:
    """Look up a registered algorithm by name."""
    _ensure_registered()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise InvalidOptionError(
            f"unknown algorithm {name!r}; registered: "
            f"{sorted(_REGISTRY)}") from None


def algorithms() -> dict[str, Algorithm]:
    """Snapshot of the full registry (benchmarks iterate this)."""
    _ensure_registered()
    return dict(_REGISTRY)


# ----------------------------------------------------------------------
# Results
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FactorResult:
    """Outcome of :func:`factor`."""

    factorization: Any
    algorithm: str          #: the algorithm that actually factored
    plan: SolverPlan
    cache_hit: bool
    #: Span tree + metrics snapshot (None unless observability is on).
    profile: "obs.Profile | None" = None


@dataclass(frozen=True)
class ExecutionRecord:
    """Per-execution timing/flop summary, always collected.

    Unlike the span-tree :class:`~repro.obs.Profile` (which exists only
    while observability is enabled), every :func:`execute` carries one
    of these: the production metrics surface for per-solve throughput.
    ``model_flops`` is the closed-form cost of the work the execution
    actually did (factorization eqs. 25–32 when freshly computed, plus
    ``2 n² ·`` column-solves for the triangular sweeps);
    ``counted_flops`` is the measured tally from the counted BLAS layer
    and is ``None`` unless observability was enabled for the run.
    """

    algorithm: str
    order: int
    nrhs: int
    wall_seconds: float
    cache_hit: bool
    fallback_used: bool
    model_flops: float | None = None
    counted_flops: int | None = None
    #: ``perf_counter`` timestamp of the execution start (span clock).
    start: float = 0.0
    #: Precision the plan requested (``"fp64"``/``"fp32"``).
    precision: str = "fp64"
    #: Storage dtype of the factor that actually drove the solves —
    #: ``"float64"`` even under a reduced-precision plan when the
    #: condest admission check forced the fp64 fallback.
    factor_dtype: str = "float64"
    #: Refinement sweeps the solve needed (``None`` when the solve was a
    #: plain pair of triangular sweeps with no refinement loop).
    refine_sweeps: int | None = None

    @property
    def rhs_per_second(self) -> float:
        """Panel solve throughput (right-hand sides per wall second)."""
        if self.wall_seconds <= 0.0:
            return float("inf")
        return self.nrhs / self.wall_seconds

    def to_record(self, *, rec_id: int = 0,
                  parent: int | None = None) -> dict:
        """Export as one unified trace-schema record
        (:func:`repro.obs.make_record`, kind ``"execution"``)."""
        return obs.make_record(
            source=obs.SOURCE_ENGINE, rec_id=rec_id, parent=parent,
            name="engine.execute", kind=obs.KIND_EXECUTION, rank=None,
            start=self.start, end=self.start + self.wall_seconds,
            attrs={
                "algorithm": self.algorithm,
                "order": self.order,
                "nrhs": self.nrhs,
                "cache_hit": self.cache_hit,
                "fallback_used": self.fallback_used,
                "model_flops": self.model_flops,
                "counted_flops": self.counted_flops,
                "rhs_per_second": self.rhs_per_second,
                "precision": self.precision,
                "factor_dtype": self.factor_dtype,
                "refine_sweeps": self.refine_sweeps,
            })


@dataclass(frozen=True)
class ExecutionResult:
    """Outcome of :func:`execute`.

    ``algorithm`` is what actually ran (it differs from
    ``plan.algorithm`` when the SPD path broke down and the armed
    fallback took over — the per-plan record that stability diagnostics
    attach to).  ``record`` is the always-on per-execution
    timing/flop summary (:class:`ExecutionRecord`).  With observability
    enabled (``repro.obs``), ``profile`` holds the execution's span
    tree — per-phase wall time and flop-model attributes — plus a
    metrics snapshot; it is ``None`` when tracing is off or when this
    execution was nested inside an enclosing span.
    """

    x: np.ndarray
    plan: SolverPlan
    algorithm: str
    cache_hit: bool
    fallback_used: bool
    detail: Any = None
    #: Span tree + metrics snapshot (None unless observability is on).
    profile: "obs.Profile | None" = None
    #: Always-collected timing/flop summary for this execution.
    record: ExecutionRecord | None = None

    def to_trace_records(self) -> list[dict]:
        """Full trace of this execution: span records + the summary.

        The profile's span tree (when observability was on) followed by
        the always-on :class:`ExecutionRecord` as a root-level
        ``kind="execution"`` record — the shape ``repro trace report``
        needs to pair per-phase timings with modeled/counted flop
        totals.  Works with observability off too (summary only).
        """
        records: list[dict] = []
        if self.profile is not None:
            records = obs.span_records(self.profile.root)
        if self.record is not None:
            records.append(self.record.to_record(rec_id=len(records)))
        return records


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------
def _resolve_cache(pl: SolverPlan,
                   cache: FactorizationCache | None
                   ) -> FactorizationCache | None:
    if cache is not None:
        return cache
    return default_cache() if pl.cache != "off" else None


def _resolve_store(pl: SolverPlan,
                   store: CacheStore | None) -> CacheStore | None:
    """Second (disk) tier: only plans on the ``cache="persistent"`` axis
    touch it — unless the caller passes an explicit store, which wins
    (tests and the serve warm path point at private roots this way)."""
    if store is not None:
        return store
    if pl.cache == "persistent":
        return default_store()
    return None


def _model_flops(pl: SolverPlan) -> float | None:
    """Closed-form factorization cost (eqs. 25–32) for Schur-type plans."""
    if pl.algorithm not in ("spd-schur", "indefinite+refine"):
        return None
    if pl.order % pl.block_size != 0:
        return None
    from repro.core.flops import factorization_flops
    try:
        return factorization_flops(pl.order, pl.block_size,
                                   representation=pl.representation,
                                   k=pl.panel)
    except Exception:
        return None


def _obtain_factorization(algo: Algorithm, pl: SolverPlan,
                          cache: FactorizationCache | None,
                          store: CacheStore | None = None
                          ) -> tuple[Any, bool]:
    if algo.factor is None:
        return None, False
    with obs.span("factor", algorithm=pl.algorithm) as sp:
        c = _resolve_cache(pl, cache)
        st = _resolve_store(pl, store)
        key = pl.cache_key()
        # Tier 1: in-process LRU.
        fact = c.get(key) if c is not None else None
        hit = fact is not None
        disk_hit = False
        # A miss frees its slot first, so a full tier never holds one
        # factor more than its budget while the new one is loaded or built.
        if fact is None and c is not None:
            c.make_room()
        # Tier 2: persistent store (emits its own cache.load span).
        if fact is None and st is not None:
            fact = st.get(key)
            if fact is not None:
                hit = disk_hit = True
                if c is not None:     # promote for this process
                    c.put(key, fact)
        # Tier 3: compute (and admit), then publish back to both tiers.
        # The memory tier drops what it holds at some later eviction, so
        # a factor built for it gets mappings that go back to the OS then.
        if fact is None:
            with mapped_buffers(c is not None):
                fact = _admitted(algo, pl, algo.factor(pl.operator, pl))
            if c is not None:
                c.put(key, fact)
            if st is not None:
                st.put(key, fact, describe={
                    "algorithm": pl.algorithm, "order": pl.order,
                    "block_size": pl.block_size,
                    "precision": pl.precision})
        if obs.enabled():
            sp.set(cache_hit=hit, disk_hit=disk_hit)
            model = _model_flops(pl)
            if model is not None:
                sp.set(model_flops=model)
                if not hit:
                    obs.default_registry().counter(
                        "repro_engine_model_flops_total",
                        "Modeled flops of factorizations actually computed"
                    ).inc(model, algorithm=pl.algorithm)
            obs.default_registry().counter(
                "repro_engine_factorizations_total",
                "Factorizations requested through the engine"
            ).inc(1, algorithm=pl.algorithm,
                  cache_hit=str(hit).lower())
    return fact, hit


def _admitted(algo: Algorithm, pl: SolverPlan, fact):
    """Condest-gated admission of a reduced-precision factorization.

    Keyed on the factor's own ``precision``, so only factors that really
    are reduced get checked.  One is kept only when fp64 refinement over
    it is expected to converge (``cond · eps_elim ≤ 0.05``,
    :func:`repro.core.precision.refinement_admissible`); otherwise the
    operator is refactored at fp64 on the spot, so the solve stage sees
    an ordinary double factorization.  ``condest`` runs on the operator
    the factor saw (regrouped to its block size).
    """
    precision = getattr(fact, "precision", "fp64")
    if precision == "fp64":
        return fact
    from repro.core.condest import condest
    from repro.core.precision import refinement_admissible
    op = pl.operator
    block_size = getattr(fact, "block_size", op.block_size)
    seen = op if block_size == op.block_size else op.regroup(block_size)
    try:
        cond = condest(seen, fact)
    except Exception:
        cond = float("inf")
    if refinement_admissible(cond, precision):
        return fact
    with obs.span("factor.precision_fallback", precision=precision,
                  cond_estimate=float(cond)):
        if obs.enabled():
            obs.default_registry().counter(
                "repro_engine_precision_fallbacks_total",
                "Reduced-precision factorizations rejected by the "
                "condest admission check and redone at fp64"
            ).inc(1, algorithm=pl.algorithm, precision=precision)
        return algo.factor(op, pl.with_(precision="fp64"))


def _recovering_solve(algo: Algorithm, op, b, pl: SolverPlan, fact,
                      **solve_kwargs):
    """The algorithm's solve, with fp64 recovery over a reduced factor.

    An admitted fp32 factor solves through blocked iterative
    refinement with fp64 residuals; if the loop stalls anyway
    (admission is an estimate, not a proof), the operator is refactored
    at fp64 outside the cache and the algorithm's own solve runs on it.
    """
    if getattr(fact, "precision", "fp64") == "fp64":
        return algo.solve(op, b, pl, fact, **solve_kwargs)
    from repro.core import refinement
    res = refinement.refine(fact, op, b, **solve_kwargs)
    if res.converged:
        return res.x, res
    with obs.span("solve.precision_fallback", precision=pl.precision):
        f64 = algo.factor(op, pl.with_(precision="fp64"))
        return algo.solve(op, b, pl, f64, **solve_kwargs)


def _require_operator(pl: SolverPlan):
    if pl.operator is None:
        raise InvalidOptionError(
            "plan has no operator attached (deserialized plans must be "
            "re-attached via SolverPlan.from_dict(d, operator=op))")
    return pl.operator


def factor(pl: SolverPlan, *,
           cache: FactorizationCache | None = None,
           store: CacheStore | None = None) -> FactorResult:
    """Factor according to the plan (through the cache tiers).

    Falls back to ``plan.fallback`` on SPD breakdown, like
    :func:`execute`; the returned ``algorithm`` says which one ran.
    ``store`` overrides the persistent tier the plan's ``cache`` axis
    would otherwise select.
    """
    _require_operator(pl)
    algo = get_algorithm(pl.algorithm)
    if algo.factor is None:
        raise InvalidOptionError(
            f"algorithm {pl.algorithm!r} has no factorization stage")
    with obs.span("engine.factor", algorithm=pl.algorithm,
                  order=pl.order) as sp:
        try:
            fact, hit = _obtain_factorization(algo, pl, cache, store)
            fres = FactorResult(factorization=fact, algorithm=pl.algorithm,
                                plan=pl, cache_hit=hit)
        except NotPositiveDefiniteError:
            if pl.fallback is None:
                raise
            sp.set(fallback=pl.fallback)
            inner = factor(pl.with_(algorithm=pl.fallback, fallback=None),
                           cache=cache, store=store)
            fres = dataclasses.replace(inner, plan=pl)
    return dataclasses.replace(fres, profile=obs.profile_from(sp))


def _solve_model_flops(algorithm: str, order: int, nrhs: int,
                       detail) -> float | None:
    """Closed-form solve-phase cost: ``2 n²`` per column-solve.

    Iterative details take priority over the algorithm name: a solve
    over a reduced-precision factor routes through blocked
    refinement and its ``detail`` reports the column-solve equivalents
    actually issued (``solve_columns``; ``precond_columns`` for PCG).
    Only a plain direct solve falls back to one forward + one backward
    sweep per RHS column.
    """
    cols = getattr(detail, "solve_columns", None)
    if cols is None:
        cols = getattr(detail, "precond_columns", None)
    if cols:
        return 2.0 * order * order * float(cols)
    if algorithm in ("spd-schur", "gko", "dense-chol"):
        return 2.0 * order * order * nrhs
    return None


def _trace_direct_solve(sp, pl: SolverPlan, nrhs: int, fact) -> None:
    """Stamp a direct (factored, unrefined) solve on its span: the
    closed-form flops and, for a distributed factorization, which
    backend ran the sweeps and why it fell back."""
    model = _solve_model_flops(pl.algorithm, pl.order, nrhs, fact)
    if model is not None:
        sp.set(model_flops=model)
    route = getattr(fact, "last_solve_backend", "")
    if route:
        sp.set(solve_backend=route)
        reason = getattr(fact, "last_solve_fallback_reason", "")
        if reason:
            sp.set(solve_fallback_reason=reason)


def execute(pl: SolverPlan, b, *,
            cache: FactorizationCache | None = None,
            store: CacheStore | None = None,
            **solve_kwargs) -> ExecutionResult:
    """Run the plan: factor (cached), solve, record what happened.

    ``b`` may be a vector or an ``n × k`` panel of right-hand sides;
    panels dispatch to the batched solve paths (level-3 triangular
    sweeps, blocked refinement, block PCG) of the registered algorithm.
    ``solve_kwargs`` reach the algorithm's solve stage (e.g. ``tol``,
    ``max_iter``, ``keep_history`` for ``indefinite+refine``).
    """
    op = _require_operator(pl)
    b = np.asarray(b, dtype=np.float64)
    algo = get_algorithm(pl.algorithm)
    nrhs = 1 if b.ndim == 1 else b.shape[1]
    t0 = time.perf_counter()
    counter = None
    with obs.span("engine.execute", algorithm=pl.algorithm,
                  order=pl.order, nrhs=nrhs) as sp:
        if obs.enabled():
            from repro.blas import primitives as blas
            counting_ctx = blas.counting()
            counter = counting_ctx.__enter__()
        try:
            fact, hit = _obtain_factorization(algo, pl, cache, store)
            with obs.span("solve", algorithm=pl.algorithm,
                          nrhs=nrhs) as ssp:
                x, detail = _recovering_solve(algo, op, b, pl, fact,
                                              **solve_kwargs)
                if obs.enabled() and fact is not None and detail is fact:
                    _trace_direct_solve(ssp, pl, nrhs, fact)
            res = ExecutionResult(x=x, plan=pl, algorithm=pl.algorithm,
                                  cache_hit=hit, fallback_used=False,
                                  detail=detail)
            if obs.enabled():
                obs.default_registry().counter(
                    "repro_engine_executions_total",
                    "Solves executed through the engine"
                ).inc(1, algorithm=res.algorithm)
        except NotPositiveDefiniteError:
            if pl.fallback is None:
                raise
            sp.set(fallback=pl.fallback)
            if obs.enabled():
                obs.default_registry().counter(
                    "repro_engine_fallbacks_total",
                    "Executions where the armed fallback algorithm ran"
                ).inc(1, algorithm=pl.fallback)
            # The recursive call counts its own execution.
            inner = execute(pl.with_(algorithm=pl.fallback, fallback=None),
                            b, cache=cache, store=store, **solve_kwargs)
            res = dataclasses.replace(inner, plan=pl, fallback_used=True)
        finally:
            if counter is not None:
                counting_ctx.__exit__(None, None, None)
    wall = time.perf_counter() - t0
    model = _solve_model_flops(res.algorithm, pl.order, nrhs, res.detail)
    if not res.cache_hit:
        factor_model = _model_flops(pl.with_(algorithm=res.algorithm))
        if factor_model is not None:
            model = factor_model + (model or 0.0)
    factor_dtype, sweeps = "float64", None
    d = res.detail
    if hasattr(d, "correction_norms"):        # refinement trace
        factor_dtype = getattr(d, "factor_dtype", "float64")
        sweeps = d.iterations
    elif hasattr(d, "solve") and hasattr(d, "dtype"):  # factorization
        factor_dtype = np.dtype(d.dtype).name
    rec = ExecutionRecord(
        algorithm=res.algorithm, order=pl.order, nrhs=nrhs,
        wall_seconds=wall, cache_hit=res.cache_hit,
        fallback_used=res.fallback_used, model_flops=model,
        counted_flops=counter.total if counter is not None else None,
        start=t0, precision=pl.precision, factor_dtype=factor_dtype,
        refine_sweeps=sweeps)
    if obs.enabled():
        sp.set(wall_seconds=wall, rhs_per_second=rec.rhs_per_second)
    return dataclasses.replace(res, profile=obs.profile_from(sp),
                               record=rec)


def execute_many(pl: SolverPlan, bs, *,
                 cache: FactorizationCache | None = None,
                 store: CacheStore | None = None,
                 **solve_kwargs) -> list[ExecutionResult]:
    """Coalesce many single-RHS solves into one panel execution.

    ``bs`` is a sequence of 1-D right-hand sides against the same plan.
    They are stacked into one ``n × k`` panel, solved with a single
    :func:`execute` (one pair of level-3 triangular sweeps instead of
    ``k`` back-substitutions — the Section 6.5 shape argument applied to
    the solve phase), and split back into one :class:`ExecutionResult`
    per input.  The per-result ``record`` is the shared panel record:
    its ``nrhs`` says how many right-hand sides the execution actually
    coalesced.  A single-element ``bs`` degenerates to the plain
    sequential :func:`execute` path, bit for bit.

    This is the batch entry the request dispatcher in
    :mod:`repro.serve` drives; it is equally usable directly.
    """
    bs = [np.asarray(b, dtype=np.float64) for b in bs]
    if not bs:
        raise InvalidOptionError("execute_many needs at least one "
                                 "right-hand side")
    for b in bs:
        if b.ndim != 1:
            raise InvalidOptionError(
                "execute_many coalesces single right-hand sides; got a "
                f"{b.ndim}-D array (pass panels straight to execute)")
        if b.shape[0] != pl.order:
            raise InvalidOptionError(
                f"right-hand side length {b.shape[0]} does not match "
                f"plan order {pl.order}")
    if len(bs) == 1:
        return [execute(pl, bs[0], cache=cache, store=store,
                        **solve_kwargs)]
    panel = np.stack(bs, axis=1)
    res = execute(pl, panel, cache=cache, store=store, **solve_kwargs)
    return [dataclasses.replace(res, x=res.x[:, j])
            for j in range(len(bs))]


def solve(op, b, *, cache=None,
          store: CacheStore | None = None,
          solve_options: dict | None = None,
          **plan_kwargs) -> ExecutionResult:
    """Convenience one-shot: ``execute(plan(op, **plan_kwargs), b)``.

    ``cache`` accepts either a :class:`FactorizationCache` instance (the
    in-memory tier to use) or a tiering string
    (``"memory"``/``"persistent"``/``"off"``), which is forwarded to
    :func:`plan` as its ``cache`` axis.
    """
    if isinstance(cache, str):
        plan_kwargs["cache"] = cache
        cache = None
    pl = make_plan(op, **plan_kwargs)
    return execute(pl, b, cache=cache, store=store,
                   **(solve_options or {}))


# ----------------------------------------------------------------------
# Core algorithms (lazy imports keep repro.core <-> engine acyclic)
# ----------------------------------------------------------------------
def _regrouped(op, pl: SolverPlan):
    if pl.block_size != op.block_size:
        return op.regroup(pl.block_size)
    return op


def _factored_solve(op, b, pl, fact, **_kwargs):
    """Apply the factorization's own solve (shared by every algorithm
    whose factor solves directly)."""
    return fact.solve(b), fact


def _spd_factor(op, pl: SolverPlan):
    if pl.nproc > 1:
        # Distributed plan: route through the backend dispatcher
        # (simulated T3D model, or real worker processes with graceful
        # degradation to the simulator).  Plans reject nproc > 1 with
        # reduced precision, so this path is always fp64.
        from repro.parallel.backends import factor_distributed
        return factor_distributed(_regrouped(op, pl), pl)
    from repro.core.schur_spd import SchurOptions, schur_spd_factor
    opts = SchurOptions(representation=pl.representation, panel=pl.panel,
                        in_place=pl.in_place, precision=pl.precision)
    return schur_spd_factor(_regrouped(op, pl), options=opts)


def _indefinite_factor(op, pl: SolverPlan):
    from repro.core.schur_indefinite import schur_indefinite_factor
    return schur_indefinite_factor(_regrouped(op, pl), perturb=pl.perturb,
                                   delta=pl.delta, precision=pl.precision)


def _indefinite_solve(op, b, pl, fact, *, tol=None, max_iter=25,
                      keep_history=False):
    from repro.core import refinement
    res = refinement.refine(fact, op, b, tol=tol, max_iter=max_iter,
                            keep_history=keep_history)
    return res.x, res


def _gko_factor(op, pl: SolverPlan):
    from repro.core.gko import gko_factor
    return gko_factor(op, precision=pl.precision)


def _gs_factor(op, pl: SolverPlan):
    # ``x = T⁻¹ e₀`` is solved to fp64 accuracy at any precision, but an
    # fp32 plan stores it (and so applies T⁻¹) in single precision: that
    # factor reports ``precision="fp32"`` and the engine refines over it.
    from repro.core.gohberg_semencul import toeplitz_inverse
    return toeplitz_inverse(op, precision=pl.precision)


register_algorithm(
    "spd-schur", factor=_spd_factor, solve=_factored_solve,
    description="block Schur Cholesky T = RᵀR (Sections 2–6)")
register_algorithm(
    "indefinite+refine", factor=_indefinite_factor,
    solve=_indefinite_solve,
    description="perturbed RᵀDR + iterative refinement (Section 8)")
register_algorithm(
    "gko", factor=_gko_factor, solve=_factored_solve,
    description="GKO Cauchy-like LU with partial pivoting "
                "(nonsymmetric block Toeplitz)")
register_algorithm(
    "gs", factor=_gs_factor, solve=_factored_solve,
    description="Gohberg–Semencul T⁻¹ operator (scalar symmetric; one "
                "O(n²) structured solve, then O(n log n) per RHS)")
