"""Backend dispatch for distributed factorization plans.

A :class:`~repro.engine.SolverPlan` with ``nproc > 1`` names *where* the
distributed block Schur algorithm runs through its ``backend`` field:

* ``"simulated"`` — the discrete-event T3D model
  (:func:`~repro.parallel.driver.simulate_factorization`), always
  available, produces virtual timings;
* ``"multiprocess"`` — real OS processes over shared memory
  (:func:`~repro.parallel.mp_backend.mp_factorization`), produces real
  wall-clock timings and per-PE spans.

:func:`factor_distributed` is the single entry the engine calls.  When
the multiprocess backend is requested but unavailable (platform probe
fails, worker spawn fails, ``REPRO_MP_DISABLE`` set), it falls back to
the simulated backend and records the reason on the returned
factorization (``fallback_reason``) and on the enclosing span — the run
still succeeds, just on the model instead of the metal.

Either way the result is a :class:`DistributedFactorization`: the
triangular factor ``R``, kept packed (``n(n+1)/2`` words, see
:mod:`repro.core.packed`) from the gather on, with the same
``solve``/``logdet`` surface as
the serial :class:`~repro.core.schur_spd.SPDFactorization`, so engine
caching and the solve stage are backend-agnostic.  ``solve`` keeps the
data plane distributed: it routes vector and panel right-hand sides
through the backend's triangular-solve program (the simulated sweeps of
:func:`~repro.parallel.driver.simulate_triangular_solve` or the real
worker processes of
:func:`~repro.parallel.mp_backend.mp_triangular_solve`), degrading to
the gathered serial sweep only when the distributed path cannot run —
with the reason recorded on ``last_solve_fallback_reason``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

import repro.obs as obs
from repro.core.packed import PackedUpper
from repro.errors import (
    DistributionError,
    MultiprocessUnavailableError,
    NotPositiveDefiniteError,
)
from repro.parallel.driver import (
    simulate_factorization,
    simulate_triangular_solve,
)
from repro.parallel.mp_backend import (
    mp_factorization,
    mp_triangular_solve,
    multiprocess_available,
)
from repro.utils.lintools import as_panel, from_panel

__all__ = ["DistributedFactorization", "factor_distributed"]


@dataclass(init=False)
class DistributedFactorization:
    """Gathered result of a distributed factorization ``T = RᵀR``.

    Solvable like the serial factorization; additionally records which
    backend actually ran (``backend``), which one the plan asked for
    (``requested_backend``) and — when they differ — why (``fallback_reason``).
    ``run`` is the backend-native result
    (:class:`~repro.parallel.mp_backend.MPRun` or
    :class:`~repro.parallel.driver.SimulatedRun`) for timing and
    communication accounting.

    ``R`` lives in ``packed``; construct with ``packed=`` or with a dense
    upper-triangular ``r`` (packed on construction).  :attr:`r` is a
    dense read-only copy, unpacked on first access.
    """

    packed: PackedUpper
    block_size: int
    num_blocks: int
    representation: str
    nproc: int
    backend: str
    requested_backend: str
    fallback_reason: str = ""
    run: object | None = None
    #: Which path the most recent :meth:`solve` took (``"simulated"``,
    #: ``"multiprocess"`` or ``"serial"``) and, for ``"serial"``, why
    #: the distributed sweeps could not run.
    last_solve_backend: str = field(default="", compare=False)
    last_solve_fallback_reason: str = field(default="", compare=False)
    #: Backend-native result of the most recent distributed solve
    #: (:class:`~repro.parallel.mp_backend.MPSolveRun` or the simulated
    #: :class:`~repro.machine.simulator.MachineReport`).
    last_solve_run: object = field(default=None, compare=False)

    def __init__(self, r: np.ndarray | None = None, *, block_size: int,
                 num_blocks: int, representation: str, nproc: int,
                 backend: str, requested_backend: str,
                 fallback_reason: str = "", run: object | None = None,
                 packed: PackedUpper | None = None):
        if packed is None:
            r = np.asarray(r, dtype=np.float64)
            packed = PackedUpper.zeros(r.shape[0])
            packed.write_rows(0, r)
        self.packed = packed
        self.block_size = block_size
        self.num_blocks = num_blocks
        self.representation = representation
        self.nproc = nproc
        self.backend = backend
        self.requested_backend = requested_backend
        self.fallback_reason = fallback_reason
        self.run = run
        self.last_solve_backend = ""
        self.last_solve_fallback_reason = ""
        self.last_solve_run = None

    @property
    def r(self) -> np.ndarray:
        """Dense read-only ``R``: unpacked on first access, then kept.

        Solves never read it; it exists for inspection and tests.
        """
        return self.packed.dense

    @property
    def order(self) -> int:
        return self.packed.n

    @property
    def fell_back(self) -> bool:
        """Whether the requested backend was substituted."""
        return self.backend != self.requested_backend

    # ------------------------------------------------------------------
    @property
    def layout(self):
        """The data distribution the factor was computed under (``None``
        without a backend run)."""
        return getattr(self.run, "layout", None)

    def _solve_route(self) -> tuple[str, str]:
        """``(route, reason)`` — which triangular-solve path to take.

        The distributed sweeps need whole block columns (Versions 1/2)
        and a backend run to solve under; anything else degrades to the
        gathered serial sweep with the reason recorded.  Both
        distributed routes solve with this factorization's own ``R``.
        """
        if self.run is None:
            return "serial", "no backend run attached"
        if self.layout.spread != 1:
            return "serial", ("Version 3 spread layout "
                              "(solve needs whole block columns)")
        if self.nproc < 2:
            return "serial", "single PE"
        if self.backend == "multiprocess":
            ok, why = multiprocess_available()
            if not ok:
                return "serial", why
        return self.backend, ""

    def _solve_serial(self, b: np.ndarray) -> np.ndarray:
        panel, single = as_panel(b, self.order, dtype=self.packed.dtype)
        y = self.packed.solve(panel, trans=True)
        return from_panel(self.packed.solve(y, overwrite_b=True), single)

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Solve ``T X = B`` (vector or ``n × k`` panel).

        The factor stays distributed: the solve runs as the
        forward/backward SPMD sweeps on the same backend that factored
        (per-PE level-3 updates, one small collective pair per block
        row), so distributed plans no longer gather ``R`` into a serial
        sweep.  Falls back to the gathered serial sweep — recording why
        on ``last_solve_fallback_reason`` — when the distributed path
        cannot run (spread layout, missing run, backend unavailable).
        """
        route, reason = self._solve_route()
        with obs.span("solve.distributed", backend=route,
                      nproc=self.nproc) as sp:
            if route == "multiprocess":
                try:
                    srun = mp_triangular_solve(
                        self.packed, self.layout, b,
                        block_size=self.block_size)
                    self.last_solve_backend = "multiprocess"
                    self.last_solve_fallback_reason = ""
                    self.last_solve_run = srun
                    sp.set(wall_seconds=srun.wall_seconds,
                           nrhs=srun.nrhs)
                    return srun.x
                except (MultiprocessUnavailableError,
                        DistributionError) as exc:
                    route, reason = "serial", str(exc)
                    sp.set(backend=route)
            if route == "simulated":
                x, rep = simulate_triangular_solve(self, b)
                self.last_solve_backend = "simulated"
                self.last_solve_fallback_reason = ""
                self.last_solve_run = rep
                sp.set(simulated_seconds=rep.makespan)
                return x
            self.last_solve_backend = "serial"
            self.last_solve_fallback_reason = reason
            self.last_solve_run = None
            sp.set(fallback_reason=reason)
            return self._solve_serial(b)

    def reconstruct(self) -> np.ndarray:
        """Dense ``Rᵀ R`` (diagnostic)."""
        return self.r.T @ self.r

    def logdet(self) -> float:
        """``log det T = 2 Σ log R_ii``.

        A valid SPD factor has a strictly positive diagonal; anything
        else means the factorization failed upstream, so this raises
        :class:`NotPositiveDefiniteError` (matching the serial path)
        instead of silently folding the sign away with ``abs``.
        """
        d = self.packed.diagonal()
        if d.size == 0 or np.min(d) <= 0.0 or not np.all(np.isfinite(d)):
            raise NotPositiveDefiniteError(
                "distributed factor has a nonpositive diagonal entry — "
                "the factorization did not complete as SPD "
                f"(min diag = {np.min(d) if d.size else float('nan')!r})")
        return 2.0 * float(np.sum(np.log(d)))


def _from_run(run, pl, *, backend: str, reason: str
              ) -> DistributedFactorization:
    return DistributedFactorization(
        packed=run.packed, block_size=run.block_size,
        num_blocks=run.num_blocks,
        representation=run.representation, nproc=pl.nproc,
        backend=backend, requested_backend=pl.backend,
        fallback_reason=reason, run=run)


def factor_distributed(op, pl) -> DistributedFactorization:
    """Run the distributed factorization the plan describes.

    ``op`` is the (possibly regrouped) symmetric block Toeplitz
    operator; ``pl`` is the :class:`~repro.engine.SolverPlan`, checked
    when it was built, that carries ``nproc``, ``distribution_b``,
    ``representation``, ``backend`` and ``schedule``.  Multiprocess
    requests degrade to the simulated backend when the platform cannot
    run them; the reason is recorded, never raised.
    """
    with obs.span("factor.distributed", backend=pl.backend,
                  nproc=pl.nproc, schedule=pl.schedule) as sp:
        reason = ""
        if pl.backend == "multiprocess":
            ok, why = multiprocess_available()
            if ok:
                try:
                    run = mp_factorization(op, plan=pl)
                    sp.set(version=run.layout.version,
                           wall_seconds=run.wall_seconds)
                    return _from_run(run, pl, backend="multiprocess",
                                     reason="")
                except MultiprocessUnavailableError as exc:
                    reason = str(exc)
            else:
                reason = why
            sp.set(fallback_reason=reason)
            if obs.enabled():
                obs.default_registry().counter(
                    "repro_mp_fallbacks_total",
                    "Multiprocess-backend requests served by the "
                    "simulator instead"
                ).inc(1)
        run = simulate_factorization(op, plan=pl)
        sp.set(version=run.layout.version, simulated_seconds=run.time)
        return _from_run(run, pl, backend="simulated", reason=reason)
