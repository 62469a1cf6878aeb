"""Distributed block Schur implementations — simulated and real.

Section 7 of the paper: the generator (``2m × mp``) is laid out over a
linear array of PEs in one of three ways (Figure 5), all given by one
:class:`~repro.parallel.distributions.Layout` and its parameter ``b``:

* **Version 1** (``b = 1``) — each block column to a PE, cyclically;
* **Version 2** (``b > 1``) — groups of ``b`` adjacent block columns
  per PE;
* **Version 3** (``b = 1/s``) — each block column *split* over ``s``
  adjacent PEs.

Two execution backends share that layout and run the same SPMD
programs (one bulk factorization for all three Versions in
:mod:`~repro.parallel.spmd`, the lookahead schedule in
:mod:`~repro.parallel.lookahead`, the solve in
:mod:`~repro.parallel.spmd_solve`; shift / build / broadcast / apply /
barrier):

* :func:`~repro.parallel.driver.simulate_factorization` runs the real
  numerics through the discrete-event T3D model
  (:class:`~repro.machine.Machine`) and returns the factor plus the
  *virtual* timing report;
* :func:`~repro.parallel.mp_backend.mp_factorization` runs one OS
  process per PE over :mod:`multiprocessing.shared_memory`, interpreting
  the programs' ops, and returns the factor plus *real* wall-clock
  timings and per-PE spans.

:func:`~repro.parallel.backends.factor_distributed` dispatches between
them from a :class:`~repro.engine.SolverPlan` (with graceful fallback
to simulation when the multiprocess backend is unavailable);
:mod:`~repro.parallel.analytic` provides the closed-form per-step cost
model the paper's trade-off discussion implies.

:data:`SCHEDULES` and :data:`BACKENDS`, the legal per-step schedules and
backends, are the plan axes of :mod:`repro.engine.plan`, re-exported
here.
"""

from repro._lazy import lazy_exports
from repro.parallel.distributions import Layout

# The simulator and the backends load on first use.
__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.engine.plan": ("BACKENDS", "SCHEDULES"),
    "repro.parallel.driver": ("simulate_factorization",
                              "simulate_triangular_solve", "SimulatedRun"),
    "repro.parallel.analytic": ("analytic_factor_time", "AnalyticBreakdown"),
    "repro.parallel.backends": ("DistributedFactorization",
                                "factor_distributed"),
    "repro.parallel.mp_backend": ("MPRun", "MPSolveRun",
                                  "mp_factorization", "mp_triangular_solve",
                                  "multiprocess_available"),
})

__all__ = [
    "Layout",
    "simulate_factorization",
    "simulate_triangular_solve",
    "SimulatedRun",
    "analytic_factor_time",
    "AnalyticBreakdown",
    "BACKENDS",
    "DistributedFactorization",
    "factor_distributed",
    "MPRun",
    "MPSolveRun",
    "SCHEDULES",
    "mp_factorization",
    "mp_triangular_solve",
    "multiprocess_available",
]
