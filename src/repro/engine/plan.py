"""Planning: choose *how* to solve before touching the right-hand side.

The paper's practical message (Sections 6.5 and 7) is that the winning
configuration — reflector representation, algorithmic block size
``m_s``, data distribution — depends on the matrix *and* the machine.
:func:`plan` packages that decision into an immutable
:class:`SolverPlan` that

* records which algorithm will run (and which fallback is armed),
* is inspectable (:meth:`SolverPlan.describe`) and serializable
  (:meth:`SolverPlan.to_dict` / :meth:`SolverPlan.from_dict`),
* carries the cache key (operator fingerprint + factorization knobs)
  that lets repeated executions reuse the factorization.

When a :class:`MachineSpec` is given, the §7 autotuner
(:mod:`repro.tuning`) acts as the planner backend: it picks ``m_s``,
the representation and the distribution parameter ``b`` from the machine
model instead of defaults.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

import repro.obs as obs
from repro.errors import InvalidOptionError, ShapeError

__all__ = ["BACKENDS", "MachineSpec", "SCHEDULES", "SolverPlan", "plan"]

_ASSUME_VALUES = ("auto", "spd", "indefinite")
#: Where a distributed factorization runs: the discrete-event T3D model
#: or real worker processes (also ``repro.parallel.BACKENDS``).
BACKENDS = ("simulated", "multiprocess")
#: Per-step schedules of the distributed factorization: the paper's
#: barrier-synchronized loop or the §6.5 lookahead overlap (also
#: ``repro.parallel.SCHEDULES``).
SCHEDULES = ("bulk", "lookahead")

#: The cache axis: in-process LRU only, LRU backed by the on-disk
#: persistent store, or no caching at all.
_CACHE_VALUES = ("memory", "persistent", "off")

#: Fields that change the factorization (and hence the cache key).
#: ``nproc``/``distribution_b``/``backend`` are included so a serial
#: factorization, a simulated run and a real multiprocess run never
#: alias in the cache (their result objects differ even though R agrees).
#: ``precision`` is included so an fp32 and an fp64 factorization of the
#: same operator never share a cache entry.
_PLAN_KEY_FIELDS = ("algorithm", "representation", "block_size", "panel",
                    "in_place", "perturb", "delta", "nproc",
                    "distribution_b", "backend", "schedule", "precision")


@dataclass(frozen=True)
class MachineSpec:
    """Target-machine description handed to the planner.

    ``node_model``/``network`` default to the paper's T3D
    parameterization inside :mod:`repro.tuning`; ``nproc > 1`` switches
    the planner to the distributed trade-off (representation + ``b``).
    """

    nproc: int = 1
    node_model: object | None = None
    network: object | None = None
    representations: tuple[str, ...] = ("vy1", "vy2", "yty")


@dataclass(frozen=True)
class SolverPlan:
    """Immutable description of one way to solve ``A x = b``.

    Produced by :func:`plan`; consumed by
    :func:`repro.engine.execute` / :func:`repro.engine.factor`.  Every
    plan is checked where it is built, so one made by :func:`plan`,
    :meth:`with_` or :meth:`from_dict` obeys the same rules.
    """

    algorithm: str
    representation: str
    block_size: int               #: algorithmic block size ``m_s``
    structural_block_size: int    #: the operator's native ``m``
    order: int
    fingerprint: str
    assume: str = "auto"
    fallback: str | None = None
    panel: int | None = None
    in_place: bool = True
    perturb: bool = True
    delta: float | None = None
    #: Cache tiering: ``"memory"`` (in-process LRU), ``"persistent"``
    #: (LRU backed by the on-disk cross-process store) or ``"off"``.
    #: Deliberately NOT part of the cache key — where a factorization is
    #: stored never changes what it is.
    cache: str = "memory"
    nproc: int = 1
    distribution_b: float | None = None
    #: Where a distributed (``nproc > 1``) factorization runs:
    #: ``"simulated"`` (discrete-event T3D model) or ``"multiprocess"``
    #: (real OS processes over shared memory, with graceful fallback to
    #: the simulator when unavailable).
    backend: str = "simulated"
    #: Per-step schedule of a distributed factorization: ``"bulk"``
    #: (the paper's barrier-synchronized loop) or ``"lookahead"`` (the
    #: Section-7 pipelined schedule — Version 1 layout, NP ≥ 2 — that
    #: overlaps the serial generator build with application work).
    schedule: str = "bulk"
    #: Working precision of the factorization: ``"fp64"`` or
    #: ``"fp32"`` (single-precision factor + fp64 refinement recovery
    #: at solve time).
    precision: str = "fp64"
    predicted_seconds: float | None = None
    note: str = ""
    #: The operator the plan was made for (not part of equality or the
    #: serialized form — re-attach on :meth:`from_dict`).
    operator: object | None = field(default=None, compare=False,
                                    repr=False)

    def __post_init__(self):
        from repro.core.block_reflector import REPRESENTATIONS
        from repro.core.precision import PRECISIONS

        for name, legal in (("assume", _ASSUME_VALUES),
                            ("backend", BACKENDS),
                            ("precision", PRECISIONS),
                            ("cache", _CACHE_VALUES),
                            ("schedule", SCHEDULES),
                            ("representation", REPRESENTATIONS)):
            value = getattr(self, name)
            if value not in legal:
                raise InvalidOptionError(
                    f"unknown {name}={value!r}; expected one of {legal}")
        if self.nproc < 1:
            raise ShapeError(f"nproc must be positive, got {self.nproc}")
        if self.nproc > 1 and self.precision != "fp64":
            raise InvalidOptionError(
                "reduced-precision factorization is serial-only: the "
                "distributed backends run fp64; drop precision or nproc")
        # A b that names no distribution on nproc PEs raises here, when
        # the plan is made, not when it runs.
        version = self._layout().version if self.nproc > 1 else None
        if self.schedule == "lookahead":
            if self.nproc < 2:
                raise InvalidOptionError(
                    "schedule='lookahead' needs nproc >= 2 (the pipelined "
                    "schedule overlaps work across PEs)")
            if version != 1:
                raise InvalidOptionError(
                    "schedule='lookahead' is implemented for the Version 1 "
                    f"distribution (b=1); got b={self.distribution_b}")

    # ------------------------------------------------------------------
    def plan_key(self) -> tuple:
        """The factorization-relevant knobs, as a hashable tuple."""
        return tuple(getattr(self, f) for f in _PLAN_KEY_FIELDS)

    def cache_key(self) -> tuple:
        """Cache key: ``(operator fingerprint, plan key)``."""
        return (self.fingerprint,) + self.plan_key()

    def with_(self, **changes) -> "SolverPlan":
        """A modified copy (plans are frozen), checked like a new plan."""
        return dataclasses.replace(self, **changes)

    def _layout(self):
        """The Figure-5 distribution of a distributed plan (``b = 1``,
        Version 1, when ``distribution_b`` is unset).

        Raises :class:`~repro.errors.DistributionError` for a ``b`` that
        names no distribution on ``nproc`` PEs.
        """
        from repro.parallel.distributions import Layout

        b = self.distribution_b
        return Layout(self.nproc, 1 if b is None else b)

    # ------------------------------------------------------------------
    def describe(self) -> str:
        """Human-readable multi-line plan summary."""
        lines = ["solver plan:"]
        algo = self.algorithm
        if self.fallback:
            algo += f" (fallback: {self.fallback})"
        lines.append(f"  algorithm       {algo}")
        lines.append(f"  operator        {self.order}x{self.order}, "
                     f"m={self.structural_block_size}, "
                     f"m_s={self.block_size}")
        lines.append(f"  representation  {self.representation}")
        if self.panel is not None:
            lines.append(f"  panel width     {self.panel}")
        if not self.in_place:
            lines.append("  phase 3         explicit shift")
        if self.delta is not None:
            lines.append(f"  delta           {self.delta:g}")
        if self.precision != "fp64":
            lines.append(f"  precision       {self.precision} "
                         "(fp64 recovery via refinement)")
        else:
            lines.append("  precision       fp64")
        lines.append(f"  cache           {self.cache} "
                     f"(fingerprint {self.fingerprint[:12]}…)")
        if self.nproc > 1:
            lines.append(
                f"  distribution    Version {self._layout().version} "
                f"(b={self.distribution_b}), NP={self.nproc}")
            lines.append(f"  backend         {self.backend}")
            lines.append(f"  schedule        {self.schedule}")
        if self.predicted_seconds is not None:
            lines.append(f"  predicted time  "
                         f"{self.predicted_seconds * 1e3:.3f} ms")
        if self.note:
            lines.append(f"  note            {self.note}")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        """JSON-ready dict of every field except the operator."""
        d = dataclasses.asdict(self)
        d.pop("operator")
        return d

    @classmethod
    def from_dict(cls, d: dict, operator=None) -> "SolverPlan":
        """Rebuild a plan from :meth:`to_dict` output, optionally
        re-attaching the operator it was made for.

        Also loads dicts written before the ``use_cache`` bool and the
        one-value ``transport`` field were dropped: ``use_cache: false``
        reads as ``cache="off"``, and ``transport`` must name the one
        fabric there is, ``"shared_memory"``.
        """
        d = dict(d)
        d.pop("operator", None)
        if not d.pop("use_cache", True):
            d["cache"] = "off"
        transport = d.pop("transport", "shared_memory")
        if transport != "shared_memory":
            raise InvalidOptionError(
                f"unknown transport={transport!r}; the multiprocess "
                "backend runs over shared memory only")
        return cls(operator=operator, **d)


# ----------------------------------------------------------------------
# Planning
# ----------------------------------------------------------------------
def _normalize_operator(op):
    """Map protocol implementers onto the class the algorithms consume.

    Returns ``(square symmetric/general block Toeplitz operator, note)``.
    """
    from repro.toeplitz.block_toeplitz import (
        BlockToeplitz,
        SymmetricBlockToeplitz,
    )
    from repro.toeplitz.convolution import ConvolutionOperator
    from repro.toeplitz.toeplitz_block import SymmetricToeplitzBlock

    if isinstance(op, (SymmetricBlockToeplitz, BlockToeplitz)):
        return op, ""
    if isinstance(op, SymmetricToeplitzBlock):
        return op.to_block_toeplitz(), \
            "shuffled from channel-major (Toeplitz-block) arrangement"
    if isinstance(op, ConvolutionOperator):
        return op.normal_matrix(), \
            "normal equations CᵀC of a convolution operator"
    raise InvalidOptionError(
        f"cannot plan for operator of type {type(op).__name__}; expected "
        "a StructuredOperator (SymmetricBlockToeplitz, BlockToeplitz, "
        "SymmetricToeplitzBlock or ConvolutionOperator)")


def _probe_spd(t, *, window: int = 64) -> bool:
    """Cheap definiteness probe: dense Cholesky of the leading
    ``min(n, window)``-ish principal minor.

    Catches indefinite operators and the singular-minor families at plan
    time (so the plan says ``indefinite+refine`` up front); a passing
    probe is *not* a certificate — execution still arms the fallback.
    """
    q = max(1, min(t.num_blocks, -(-window // t.block_size)))
    with obs.span("plan.probe", window=window) as sp:
        minor = t.leading(q).dense()
        try:
            np.linalg.cholesky(minor)
            spd = True
        except np.linalg.LinAlgError:
            spd = False
        sp.set(spd=spd)
    return spd


def plan(op, *, assume: str = "auto", machine: MachineSpec | None = None,
         algorithm: str | None = None, representation: str | None = None,
         block_size: int | None = None, panel: int | None = None,
         in_place: bool = True, perturb: bool = True,
         delta: float | None = None, cache: str = "memory",
         probe: bool = True, nproc: int | None = None,
         distribution_b: float | None = None,
         backend: str = "simulated",
         schedule: str = "bulk",
         precision: str = "fp64") -> SolverPlan:
    """Produce a :class:`SolverPlan` for ``op``.

    See :func:`_make_plan` for the parameter reference; this wrapper
    only adds the ``engine.plan`` observability span.
    """
    with obs.span("engine.plan", assume=assume) as sp:
        pl = _make_plan(op, assume=assume, machine=machine,
                        algorithm=algorithm, representation=representation,
                        block_size=block_size, panel=panel,
                        in_place=in_place, perturb=perturb, delta=delta,
                        cache=cache, probe=probe, nproc=nproc,
                        distribution_b=distribution_b, backend=backend,
                        schedule=schedule, precision=precision)
        sp.set(algorithm=pl.algorithm, order=pl.order,
               block_size=pl.block_size)
    return pl


def _make_plan(op, *, assume: str = "auto",
               machine: MachineSpec | None = None,
               algorithm: str | None = None,
               representation: str | None = None,
               block_size: int | None = None, panel: int | None = None,
               in_place: bool = True, perturb: bool = True,
               delta: float | None = None, cache: str = "memory",
               probe: bool = True, nproc: int | None = None,
               distribution_b: float | None = None,
               backend: str = "simulated",
               schedule: str = "bulk",
               precision: str = "fp64") -> SolverPlan:
    """Produce a :class:`SolverPlan` for ``op``.

    Parameters
    ----------
    op : StructuredOperator
        The operator to solve with.  Toeplitz-block operators are
        shuffled, convolution operators are replaced by their
        normal-equations matrix (recorded in ``plan.note``).
    assume : {"auto", "spd", "indefinite"}
        Definiteness assumption.  ``"auto"`` probes a leading principal
        minor and arms the indefinite fallback.
    machine : MachineSpec, optional
        When given, the §7 autotuner picks representation, algorithmic
        block size ``m_s`` (serial) and distribution ``b`` (parallel).
    algorithm : str, optional
        Explicit algorithm override (any registered name, e.g.
        ``"levinson"``, ``"pcg"``, ``"dense-chol"``).
    representation, block_size, panel, in_place, perturb, delta
        Factorization knobs (see :class:`~repro.core.SchurOptions` and
        :func:`~repro.core.schur_indefinite.schur_indefinite_factor`);
        explicit values win over machine-tuned ones.
    cache : {"memory", "persistent", "off"}
        Cache tiering.  ``"memory"`` (the default) keeps the in-process
        LRU only; ``"persistent"`` backs it with the on-disk
        cross-process store (:func:`repro.engine.default_store`), so
        factorizations survive restarts and are shared between workers;
        ``"off"`` disables caching.
    probe : bool
        Disable the definiteness probe (``assume="auto"`` then always
        plans the SPD path with the fallback armed).
    nproc : int, optional
        Explicit PE count for a distributed factorization (overrides a
        machine-tuned value).  ``nproc > 1`` routes the SPD
        factorization through the distributed backends.
    distribution_b : float, optional
        Explicit distribution parameter (``b ≥ 1``: Versions 1/2;
        ``b < 1``: Version 3 with spread ``1/b``).  Defaults to the
        machine-tuned value, else ``1`` (Version 1) when distributed.
    backend : {"simulated", "multiprocess"}
        Where a distributed factorization runs.  ``"multiprocess"``
        uses real worker processes over shared memory and degrades to
        the simulator (with a recorded reason) when unavailable.
    schedule : {"bulk", "lookahead"}
        Per-step schedule of the distributed factorization.
        ``"lookahead"`` runs the Section-7 pipelined schedule that
        overlaps the serial generator build with application work;
        it requires the Version 1 distribution (``b = 1``) and
        ``nproc ≥ 2``.
    precision : {"fp64", "fp32"}
        Working precision of the factorization.  Reduced-precision
        plans factor faster and route every solve through blocked
        iterative refinement with fp64 residuals to recover double
        accuracy; the engine falls back to an fp64 factorization when
        the estimated condition number makes refinement inadmissible.
        Serial only (``nproc > 1`` is fp64-only).
    """
    from repro.toeplitz.block_toeplitz import SymmetricBlockToeplitz

    target, note = _normalize_operator(op)
    symmetric = isinstance(target, SymmetricBlockToeplitz)
    n = target.order
    m = target.block_size

    # --- machine-tuned knobs (the §7 planner backend) -----------------
    explicit_nproc = nproc
    nproc = 1
    dist_b: float | None = distribution_b
    predicted: float | None = None
    tuned_rep: str | None = None
    tuned_ms: int | None = None
    if machine is not None and symmetric:
        from repro.tuning import tune
        nproc = max(1, machine.nproc)
        result = tune(n, m, nproc=nproc,
                      node_model=machine.node_model,
                      network=machine.network,
                      representations=machine.representations)
        tuned_rep = result.representation
        tuned_ms = result.block_size
        predicted = result.predicted_seconds
        if dist_b is None and result.distribution is not None:
            dist_b = result.distribution.b
    if explicit_nproc is not None:
        nproc = explicit_nproc
    if nproc > 1 and dist_b is None:
        dist_b = 1.0   # Version 1 unless the planner/user says otherwise

    # --- algorithm selection ------------------------------------------
    fallback: str | None = None
    if algorithm is not None:
        from repro.engine.engine import get_algorithm
        get_algorithm(algorithm)  # validates the name
    elif not symmetric:
        algorithm = "gko"
    elif assume == "spd":
        algorithm = "spd-schur"
    elif assume == "indefinite":
        algorithm = "indefinite+refine"
    else:  # auto
        if probe and not _probe_spd(target):
            algorithm = "indefinite+refine"
        else:
            algorithm = "spd-schur"
            fallback = "indefinite+refine"

    # --- representation / block size ----------------------------------
    rep = representation if representation is not None else \
        (tuned_rep or "vy2")
    ms = block_size if block_size is not None else (tuned_ms or m)
    if ms != m:
        if ms <= 0 or ms % m != 0 or n % ms != 0:
            raise ShapeError(
                f"algorithmic block size {ms} must be a multiple of "
                f"m={m} dividing n={n}")

    return SolverPlan(
        algorithm=algorithm, representation=rep, block_size=ms,
        structural_block_size=m, order=n,
        fingerprint=target.fingerprint(), assume=assume,
        fallback=fallback, panel=panel, in_place=in_place,
        perturb=perturb, delta=delta, cache=cache,
        nproc=nproc, distribution_b=dist_b, backend=backend,
        schedule=schedule, precision=precision,
        predicted_seconds=predicted, note=note,
        operator=target)
