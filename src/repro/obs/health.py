"""Numerical-health telemetry: gauges that predict breakdown.

The §8.2 stability analysis (and Bojanczyk–Brent–de Hoog's error
analysis of Bareiss-type factorizations) identifies the per-step
quantities that *predict* trouble long before a solve goes wrong:

* the **hyperbolic rotation margin** — how far each pivot column's
  hyperbolic norm ``|uᵀWu|`` sits above the breakdown threshold.  A
  margin ratio drifting toward 1 means the next factorization of a
  nearby matrix dies with a :class:`~repro.errors.BreakdownError`;
* the **growth factor** — the 2-norm of the hyperbolic transformation
  applied at each block step (``≈ 2/√δ`` right after a pivot
  perturbation), the quantity the §8.2 bound budgets at ``O(1/δ)``;
* **condest admission decisions** — whether reduced-precision
  factorization + fp64 refinement was admitted (``cond·ε ≤ 0.05``) or
  rejected back to fp64;
* **refinement convergence** — the per-sweep residual contraction γ
  (eq. 41); a contraction near 1 means refinement is stalling.

The solver core computes all of these already and used to throw them
away.  The hooks here persist them as gauges/counters in the default
metrics registry — **only when observability is enabled**: every hook
is guarded by :func:`repro.obs.spans.enabled` at the call site and
returns immediately otherwise, so the disabled cost is one module-global
boolean check (covered by the < 2 % CI overhead gate).

:func:`health_summary` rolls the gauges up into a breakdown
early-warning report; the CLI prints it under ``--profile`` and
``repro trace report`` consumes the same snapshot shape.
"""

from __future__ import annotations

import math

import numpy as np

from repro.obs.metrics import default_registry
from repro.obs.spans import enabled

__all__ = [
    "record_rotation_margin",
    "record_growth_factor",
    "record_pivot_spread",
    "record_indefinite_events",
    "record_admission",
    "record_refinement",
    "health_summary",
    "render_health",
]

#: Early-warning threshold: a minimum margin ratio below this many
#: multiples of the breakdown tolerance flags the run.
MARGIN_WARN_RATIO = 10.0

#: Early-warning threshold on the refinement contraction factor γ
#: (eq. 41): above this, convergence is too slow to trust.
CONTRACTION_WARN = 0.5


def _track_min(gauge, value: float) -> None:
    current = gauge.value()
    if current == 0.0 or value < current:
        gauge.set(value)


def _track_max(gauge, value: float) -> None:
    if value > gauge.value():
        gauge.set(value)


# ----------------------------------------------------------------------
# Hooks (call sites guard with ``obs.enabled()``)
# ----------------------------------------------------------------------
def record_rotation_margin(margin: float, tol: float) -> None:
    """One pivot's hyperbolic margin ``|uᵀWu|/‖u‖²`` against its
    breakdown tolerance ``tol``.

    Tracks the run's minimum margin, the minimum margin *ratio*
    (margin / tol — the dimensionless distance to breakdown), and a
    reflector counter.
    """
    if not enabled():
        return
    reg = default_registry()
    _track_min(reg.gauge(
        "repro_health_rotation_margin_min",
        "Smallest hyperbolic pivot margin |uᵀWu|/‖u‖² seen"), margin)
    if tol > 0.0 and math.isfinite(margin):
        _track_min(reg.gauge(
            "repro_health_rotation_margin_ratio_min",
            "Smallest pivot margin as a multiple of its breakdown "
            "tolerance (≤ 1 would raise BreakdownError)"), margin / tol)
    reg.counter(
        "repro_health_reflectors_total",
        "Hyperbolic reflectors built").inc(1)


def record_growth_factor(step: int, norm: float) -> None:
    """The §8.2 growth proxy ``‖U‖₂`` of one block step's transformation."""
    if not enabled():
        return
    reg = default_registry()
    _track_max(reg.gauge(
        "repro_health_growth_factor_max",
        "Largest per-step hyperbolic transformation 2-norm (the §8.2 "
        "growth factor; ≈ 2/√δ right after a perturbation)"), norm)
    reg.gauge(
        "repro_health_growth_factor_last",
        "Transformation 2-norm of the most recent block step").set(norm)
    reg.counter(
        "repro_health_growth_steps_total",
        "Block elimination steps with a recorded growth factor").inc(1)


def record_pivot_spread(diag_min: float, diag_max: float) -> None:
    """Spread of the triangular factor's diagonal (SPD pivot decay)."""
    if not enabled():
        return
    reg = default_registry()
    reg.gauge(
        "repro_health_pivot_min",
        "Smallest diagonal entry of the most recent triangular factor"
    ).set(diag_min)
    if diag_max > 0.0:
        _track_min(reg.gauge(
            "repro_health_pivot_ratio_min",
            "Smallest min/max diagonal ratio of a triangular factor "
            "(squared, this bounds cond(T) from below)"),
            diag_min / diag_max)


def record_indefinite_events(perturbations: int,
                             interchanges: int) -> None:
    """Singular-minor perturbations and row interchanges of one
    indefinite factorization."""
    if not enabled():
        return
    reg = default_registry()
    if perturbations:
        reg.counter(
            "repro_health_perturbations_total",
            "Pivot perturbations applied across singular principal "
            "minors (each makes the factorization one of T + δT)"
        ).inc(perturbations)
    if interchanges:
        reg.counter(
            "repro_health_interchanges_total",
            "Row interchanges keeping indefinite pivots on the "
            "diagonal").inc(interchanges)


def record_admission(precision: str, cond: float, admitted: bool) -> None:
    """One condest admission decision for a reduced-precision plan."""
    if not enabled():
        return
    reg = default_registry()
    reg.counter(
        "repro_health_admission_total",
        "Reduced-precision admission decisions (cond·ε gate)"
    ).inc(1, precision=precision, admitted=str(admitted).lower())
    if math.isfinite(cond):
        reg.gauge(
            "repro_health_cond_estimate",
            "Condition estimate behind the most recent admission "
            "decision").set(cond)


def record_refinement(residual_norms, converged: bool) -> None:
    """Convergence curve of one refinement run.

    Stores the geometric-mean per-sweep residual contraction (the
    measured γ of eq. 41) and counts non-converged runs.
    """
    if not enabled():
        return
    reg = default_registry()
    norms = [float(r) for r in residual_norms]
    if len(norms) >= 2 and norms[0] > 0.0 and norms[-1] > 0.0:
        sweeps = len(norms) - 1
        contraction = (norms[-1] / norms[0]) ** (1.0 / sweeps)
        reg.gauge(
            "repro_health_refinement_contraction",
            "Geometric-mean per-sweep residual contraction γ of the "
            "most recent refinement (eq. 41; near 1 ⇒ stalling)"
        ).set(min(contraction, 1.0e9))
        _track_max(reg.gauge(
            "repro_health_refinement_contraction_max",
            "Worst per-sweep refinement contraction seen"), contraction)
    reg.counter(
        "repro_health_refinements_total",
        "Refinement runs observed").inc(
            1, converged=str(bool(converged)).lower())


# ----------------------------------------------------------------------
# Summary / early warning
# ----------------------------------------------------------------------
def _sum_labeled(snapshot: dict, name: str,
                 label: str | None = None) -> float:
    """Sum every sample of ``name`` (optionally matching one label)."""
    total = 0.0
    for key, value in snapshot.items():
        if key == name or key.startswith(name + "{"):
            if label is None or label in key:
                total += value
    return total


def health_summary(snapshot: dict | None = None) -> dict:
    """Roll the health gauges up into an early-warning summary.

    ``snapshot`` is a flat metrics dict (as produced by
    :meth:`~repro.obs.metrics.MetricsRegistry.snapshot` — also what a
    :class:`~repro.obs.Profile` carries); when omitted, the default
    registry is snapshotted.  Returns a dict with the raw quantities, a
    boolean ``observed`` (any health metric present at all), and a
    ``warnings`` list of human-readable early-warning strings.
    """
    if snapshot is None:
        snapshot = default_registry().snapshot()
    margin_ratio = snapshot.get("repro_health_rotation_margin_ratio_min")
    growth = snapshot.get("repro_health_growth_factor_max")
    contraction = snapshot.get("repro_health_refinement_contraction_max")
    perturbations = _sum_labeled(snapshot,
                                 "repro_health_perturbations_total")
    interchanges = _sum_labeled(snapshot,
                                "repro_health_interchanges_total")
    rejected = _sum_labeled(snapshot, "repro_health_admission_total",
                            label='admitted="false"')
    admitted = _sum_labeled(snapshot, "repro_health_admission_total",
                            label='admitted="true"')
    nonconverged = _sum_labeled(snapshot, "repro_health_refinements_total",
                                label='converged="false"')
    reflectors = _sum_labeled(snapshot, "repro_health_reflectors_total")

    warnings: list[str] = []
    if margin_ratio is not None and margin_ratio <= MARGIN_WARN_RATIO:
        warnings.append(
            f"pivot hyperbolic margin within {margin_ratio:.1f}× of the "
            f"breakdown tolerance (≤ {MARGIN_WARN_RATIO:.0f}× warns): a "
            "nearby matrix would break down — consider "
            "indefinite+refine or a larger perturbation δ")
    if growth is not None and growth > 1.0:
        # The §8.2 budget: perturbed steps reach ≈ 2/√δ ≈ 4e2 at fp64's
        # δ = ∛ε.  Warn once growth exceeds half that budget.
        budget = 2.0 / math.sqrt(float(np.finfo(np.float64).eps) ** (1 / 3))
        if growth >= 0.5 * budget:
            warnings.append(
                f"transformation growth {growth:.3g} is within 2× of "
                f"the §8.2 perturbation budget 2/√δ ≈ {budget:.3g}: "
                "expect ≥ 2 refinement sweeps and reduced backward "
                "stability")
    if perturbations:
        warnings.append(
            f"{int(perturbations)} pivot perturbation(s): the "
            "factorization is of a nearby matrix T + δT — solve through "
            "iterative refinement")
    if rejected:
        warnings.append(
            f"{int(rejected)} reduced-precision admission rejection(s): "
            "cond·ε exceeded the 0.05 gate and the factorization was "
            "redone at fp64")
    if contraction is not None and contraction >= CONTRACTION_WARN:
        warnings.append(
            f"refinement contraction γ ≈ {contraction:.2f} "
            f"(≥ {CONTRACTION_WARN} warns): convergence is marginal — "
            "the condition estimate may understate cond(T)")
    if nonconverged:
        warnings.append(
            f"{int(nonconverged)} refinement run(s) did not converge")

    observed = any(k.startswith("repro_health_") for k in snapshot)
    return {
        "observed": observed,
        "rotation_margin_min": snapshot.get(
            "repro_health_rotation_margin_min"),
        "rotation_margin_ratio_min": margin_ratio,
        "growth_factor_max": growth,
        "pivot_ratio_min": snapshot.get("repro_health_pivot_ratio_min"),
        "reflectors": int(reflectors),
        "perturbations": int(perturbations),
        "interchanges": int(interchanges),
        "admissions": int(admitted),
        "admission_rejections": int(rejected),
        "refinement_contraction": contraction,
        "refinements_nonconverged": int(nonconverged),
        "cond_estimate": snapshot.get("repro_health_cond_estimate"),
        "warnings": warnings,
    }


def render_health(summary: dict) -> str:
    """Human-readable numerical-health block (CLI ``--profile``)."""
    lines = ["numerical health:"]
    fmt = [
        ("rotation margin (min)", "rotation_margin_min", "{:.3e}"),
        ("margin / tolerance (min)", "rotation_margin_ratio_min",
         "{:.3g}×"),
        ("growth factor (max)", "growth_factor_max", "{:.3g}"),
        ("pivot min/max ratio", "pivot_ratio_min", "{:.3e}"),
        ("refinement contraction γ", "refinement_contraction", "{:.3g}"),
        ("condition estimate", "cond_estimate", "{:.3e}"),
    ]
    for label, key, spec in fmt:
        value = summary.get(key)
        if value is not None:
            lines.append(f"  {label:<26} {spec.format(value)}")
    counts = [
        ("reflectors", summary.get("reflectors", 0)),
        ("perturbations", summary.get("perturbations", 0)),
        ("interchanges", summary.get("interchanges", 0)),
        ("admission rejections",
         summary.get("admission_rejections", 0)),
    ]
    counted = "  ".join(f"{k}={v}" for k, v in counts if v)
    if counted:
        lines.append(f"  events: {counted}")
    if summary["warnings"]:
        lines.append("  early warnings:")
        for w in summary["warnings"]:
            lines.append(f"    ! {w}")
    else:
        lines.append("  no early warnings")
    return "\n".join(lines)
