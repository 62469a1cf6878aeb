"""BLAS substrate: counted primitives and machine performance models.

The paper's implementation choices all hinge on the relative performance
of level-1/2/3 BLAS primitives on a given machine.  This subpackage
provides:

* :mod:`repro.blas.primitives` — NumPy-backed BLAS-like kernels that tally
  flops into an active :class:`~repro.blas.primitives.FlopCounter`, used to
  validate the paper's closed-form operation counts (eqs. 25–32);
* :mod:`repro.blas.perf_model` — parametric (Hockney ``r_∞ / n_½``)
  performance models mapping a primitive call to virtual seconds;
* :mod:`repro.blas.cray` — Cray Y-MP and Cray T3D parameterizations built
  from the figures published in the paper (Section 7.1.4);
* :mod:`repro.blas.empirical` — an on-host measured characterization, the
  approach the authors themselves used for the Y-MP analysis.
"""

from repro.blas.primitives import (
    FlopCounter,
    counting,
    active_counter,
    charge,
    dot,
    axpy,
    scal,
    gemv,
    ger,
    gemm,
    trsm_lower,
    syrk,
)
from repro._lazy import lazy_exports

# The performance models load on first use.
__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.blas.perf_model": ("HockneyRate", "BlasPerformanceModel",
                              "PrimitiveCall"),
    "repro.blas.cray": ("cray_ymp_model", "t3d_node_model",
                        "T3DNetworkParameters"),
    "repro.blas.empirical": ("EmpiricalBlasModel", "measure_host_model"),
})

__all__ = [
    "FlopCounter",
    "counting",
    "active_counter",
    "charge",
    "dot",
    "axpy",
    "scal",
    "gemv",
    "ger",
    "gemm",
    "trsm_lower",
    "syrk",
    "HockneyRate",
    "BlasPerformanceModel",
    "PrimitiveCall",
    "cray_ymp_model",
    "t3d_node_model",
    "T3DNetworkParameters",
    "EmpiricalBlasModel",
    "measure_host_model",
]
