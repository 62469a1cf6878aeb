"""Driver: run the distributed programs on the simulated machine.

Builds the generator and executes the SPMD programs of
:mod:`repro.parallel.spmd`, :mod:`repro.parallel.lookahead` and
:mod:`repro.parallel.spmd_solve` on a :class:`~repro.machine.Machine`.
Every rank is handed the same generator and, when the factor is kept,
the same :class:`~repro.core.packed.PackedUpper`, into which it writes
its own blocks of ``R`` — the in-process stand-in for the shared packed
segment the real backend (:mod:`repro.parallel.mp_backend`) hands its
workers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.blas.cray import T3DNetworkParameters, t3d_node_model
from repro.core.packed import PackedUpper
from repro.errors import (
    BreakdownError,
    DistributionError,
    NotPositiveDefiniteError,
)
from repro.machine.network import Torus3D
from repro.machine.simulator import Machine, MachineReport
from repro.parallel.distributions import BlockCyclicLayout
from repro.parallel.spmd import resolve_run
from repro.toeplitz.block_toeplitz import SymmetricBlockToeplitz
from repro.utils.lintools import as_panel, from_panel

__all__ = ["SimulatedRun", "simulate_factorization",
           "simulate_triangular_solve"]


@dataclass
class SimulatedRun:
    """Result of one simulated distributed factorization.

    ``packed`` is the gathered factor in packed storage (``None`` when
    not collected); :attr:`r` is a dense copy for callers that want one.
    """

    packed: PackedUpper | None
    report: MachineReport
    layout: object
    block_size: int
    num_blocks: int
    representation: str

    @property
    def r(self) -> np.ndarray | None:
        """Dense read-only ``R``, unpacked on first access (or ``None``)."""
        return None if self.packed is None else self.packed.dense

    @property
    def time(self) -> float:
        """Simulated time to factor (seconds on the modeled machine)."""
        return self.report.makespan

    def breakdown(self) -> dict[str, float]:
        """Phase breakdown of the critical (slowest) rank."""
        return self.report.category_of_critical_rank()


def simulate_factorization(t: SymmetricBlockToeplitz,
                           nproc: int | None = None, *,
                           b: float = 1,
                           plan=None,
                           layout=None,
                           representation: str | None = None,
                           node_model=None,
                           network: T3DNetworkParameters | None = None,
                           topology=None,
                           collect: bool = True,
                           trace: bool = False,
                           schedule: str | None = None) -> SimulatedRun:
    """Factor ``t`` on a simulated ``nproc``-PE machine.

    Parameters
    ----------
    t : SymmetricBlockToeplitz
        SPD block Toeplitz matrix.
    nproc : int
        Number of PEs (linear array embedded in a 3-D torus by default).
        May be omitted when ``plan`` carries it.
    b : float
        The paper's distribution parameter: ``b ≥ 1`` selects Versions
        1/2 with ``b`` adjacent blocks per PE; ``b < 1`` selects Version
        3 with ``spread = 1/b``.  Ignored when ``layout`` is given.
    plan : repro.engine.SolverPlan, optional
        A machine-tuned plan: supplies ``nproc``, the distribution
        parameter ``b`` (hence the Version 1/2/3 layout), the
        reflector representation and the schedule, unless overridden
        explicitly.
    representation : str
        Block reflector representation (affects both compute cost and
        broadcast volume).
    node_model / network / topology
        Default to the paper's T3D parameterization.
    collect : bool
        Gather and assemble ``R`` (turn off for large timing sweeps).
    schedule : str
        ``"bulk"`` (the paper's barrier-synchronized loop, the default)
        or ``"lookahead"`` (the §6.5 overlap variant; Version 1, NP ≥ 2).

    The run is resolved and checked by
    :func:`~repro.parallel.spmd.resolve_run`, as on real processes
    (:func:`~repro.parallel.mp_backend.mp_factorization`).

    Returns
    -------
    SimulatedRun
        With the packed factor (when collected) and the virtual-time
        report.

    Raises
    ------
    NotPositiveDefiniteError
        When a pivot breaks down (some leading principal minor of ``t``
        is not positive), as in the serial and multiprocess factors.
    """
    layout, g, program, representation, _schedule = resolve_run(
        t, nproc, b=b, plan=plan, layout=layout,
        representation=representation, schedule=schedule)
    m, p = g.block_size, g.num_blocks
    packed = PackedUpper.zeros(m * p) if collect else None
    machine = Machine(layout.nproc, network=network or T3DNetworkParameters(),
                      topology=topology or Torus3D(layout.nproc),
                      trace=trace)
    try:
        report = machine.run(program, layout=layout, m=m, p=p, w=g.w,
                             gen=g.gen, representation=representation,
                             node_model=node_model or t3d_node_model(),
                             packed=packed)
    except BreakdownError as exc:
        raise NotPositiveDefiniteError(
            f"matrix is not positive definite: {exc}") from exc
    return SimulatedRun(packed=packed, report=report, layout=layout,
                        block_size=m, num_blocks=p,
                        representation=representation)


def simulate_triangular_solve(run, b: np.ndarray, *,
                              node_model=None,
                              network: T3DNetworkParameters | None = None,
                              topology=None,
                              trace: bool = False
                              ) -> tuple[np.ndarray, MachineReport]:
    """Solve ``RᵀR x = b`` with a distributed factor on the simulated
    machine.

    ``run`` is a :class:`SimulatedRun` or a
    :class:`~repro.parallel.backends.DistributedFactorization` — anything
    with ``packed``, ``layout`` and ``block_size``.  Each PE reads its own
    block columns of ``run.packed`` in the triangular-solve program of
    :mod:`repro.parallel.spmd_solve`.  ``b`` may be a vector or an
    ``n × k`` panel.  Versions 1/2 layouts only (the solve sweeps
    assume whole block columns) — this is the routing target of
    :meth:`repro.parallel.backends.DistributedFactorization.solve` for
    the simulated backend.

    Returns ``(x, solve_report)`` with ``x`` shaped like ``b``.

    Raises
    ------
    DistributionError
        For a spread layout, or a run that kept no factor
        (``collect=False``).
    """
    from repro.parallel.spmd_solve import triangular_solve_program

    layout = run.layout
    if not isinstance(layout, BlockCyclicLayout):
        raise DistributionError(
            "the distributed solve supports Versions 1/2 "
            "(whole block columns)")
    if run.packed is None:
        raise DistributionError(
            "the run kept no factor to solve with (collect=False)")
    if node_model is None:
        node_model = t3d_node_model()
    if network is None:
        network = T3DNetworkParameters()
    nproc = layout.nproc
    m = run.block_size
    panel, single = as_panel(b, run.packed.n)
    x = np.zeros_like(panel)
    machine = Machine(nproc, network=network,
                      topology=topology or Torus3D(nproc), trace=trace)
    solve_report = machine.run(
        triangular_solve_program, layout=layout, m=m,
        p=run.packed.n // m, packed=run.packed, b=panel, x=x,
        node_model=node_model)
    return from_panel(x, single), solve_report
