"""Closed-form time model for the distributed algorithm.

Independent of the event simulator: sums, over the ``p − 1`` elimination
steps, the critical-path cost of each bulk-synchronous phase (shift,
build, broadcast(s), apply, barrier).  Used to cross-check the simulator
(they should agree closely — the simulated programs are exactly this
phase structure) and to explore parameter spaces too large to simulate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import ceil

from repro.blas.cray import T3DNetworkParameters, t3d_node_model
from repro.core import flops
from repro.errors import ShapeError
from repro.parallel.distributions import Layout

__all__ = ["AnalyticBreakdown", "analytic_factor_time"]


@dataclass
class AnalyticBreakdown:
    """Predicted time-to-factor with a per-phase split."""

    total: float = 0.0
    by_phase: dict[str, float] = field(default_factory=dict)

    def add(self, phase: str, seconds: float) -> None:
        """Accumulate ``seconds`` into ``phase`` (and the total)."""
        self.total += seconds
        self.by_phase[phase] = self.by_phase.get(phase, 0.0) + seconds


def analytic_factor_time(n: int, m: int, nproc: int, *,
                         b: float = 1,
                         representation: str = "vy2",
                         node_model=None,
                         network: T3DNetworkParameters | None = None
                         ) -> AnalyticBreakdown:
    """Predict the simulated time-to-factor for the given configuration.

    Per step, the worst PE holds ``kmax`` live chunks (whole groups of
    ``b`` blocks in Version 2) and forwards one per owned group across
    the PE boundary; then each of the ``spread`` chunks of the pivot
    block is built, broadcast and applied in turn.
    """
    if n % m != 0:
        raise ShapeError(f"n={n} not a multiple of m={m}")
    p = n // m
    layout = Layout(nproc, b)
    s, g = layout.spread, layout.group_size
    mc = layout.chunk_width(m)
    if node_model is None:
        node_model = t3d_node_model()
    if network is None:
        network = T3DNetworkParameters()
    out = AnalyticBreakdown()
    t_barrier = network.barrier_time(nproc)
    t_bcast = network.broadcast_time(
        flops.transform_words(representation, m, k=mc) + mc, nproc)
    t_build = [node_model.time_many(flops.blocking_calls(
        m, representation=representation, cols=mc, start_index=c * mc))
        for c in range(s)]
    for i in range(1, p):
        active = (p - i) * s          # live chunks of blocks j ≥ i
        kmax = ceil(ceil(active / g) / nproc) * g
        crossing = ceil(kmax / g)
        out.add("shift", network.put_time(crossing * m * mc, hops=s,
                                          count=crossing))
        width = min(kmax, max(active - 1, 0)) * mc
        for c in range(s):
            out.add("blocking", t_build[c])
            out.add("broadcast", t_bcast)
            if width > 0:
                out.add("application", node_model.time_many(
                    flops.application_calls(
                        m, width, representation=representation, k=mc)))
        out.add("barrier", t_barrier)
    return out
