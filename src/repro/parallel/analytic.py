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
from repro.errors import DistributionError, ShapeError
from repro.parallel.distributions import (
    BlockCyclicLayout,
    SpreadLayout,
    make_layout,
)

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


def _max_active_blocks(p_active: int, layout: BlockCyclicLayout) -> int:
    """Largest number of live blocks on any one PE."""
    b, npp = layout.group_size, layout.nproc
    groups = ceil(p_active / b)
    return ceil(groups / npp) * b


def analytic_factor_time(n: int, m: int, nproc: int, *,
                         b: float = 1,
                         representation: str = "vy2",
                         node_model=None,
                         network: T3DNetworkParameters | None = None
                         ) -> AnalyticBreakdown:
    """Predict the simulated time-to-factor for the given configuration."""
    if n % m != 0:
        raise ShapeError(f"n={n} not a multiple of m={m}")
    p = n // m
    layout = make_layout(nproc, b=b)
    if node_model is None:
        node_model = t3d_node_model()
    if network is None:
        network = T3DNetworkParameters()
    out = AnalyticBreakdown()

    if isinstance(layout, BlockCyclicLayout):
        t_build = node_model.time_many(
            flops.blocking_calls(m, representation=representation))
        bcast_words = flops.transform_words(representation, m) + m
        t_bcast = network.broadcast_time(bcast_words, nproc)
        t_barrier = network.barrier_time(nproc)
        for i in range(1, p):
            active = p - i            # live blocks j ≥ i
            kmax = _max_active_blocks(active, layout)
            # shift: worst PE forwards its boundary blocks (one per
            # owned group crosses in Version 2; every block in Version 1)
            crossing = kmax if layout.group_size == 1 else \
                ceil(kmax / layout.group_size)
            out.add("shift", network.put_time(crossing * m * m, hops=1,
                                              count=crossing))
            out.add("blocking", t_build)
            out.add("broadcast", t_bcast)
            width = min(kmax, max(active - 1, 0)) * m
            if width > 0:
                out.add("application", node_model.time_many(
                    flops.application_calls(
                        m, width, representation=representation)))
            out.add("barrier", t_barrier)
        return out

    if isinstance(layout, SpreadLayout):
        s = layout.spread
        mc = layout.chunk_width(m)
        t_barrier = network.barrier_time(nproc)
        bcast_words = flops.transform_words(representation, m, k=mc) + mc
        t_bcast = network.broadcast_time(bcast_words, nproc)
        for i in range(1, p):
            active_chunks = (p - i) * s
            kmax = ceil(active_chunks / nproc)
            out.add("shift", network.put_time(kmax * m * mc, hops=s,
                                              count=kmax))
            for c in range(s):
                out.add("blocking", node_model.time_many(
                    flops.blocking_calls(
                        m, representation=representation,
                        cols=mc, start_index=c * mc)))
                out.add("broadcast", t_bcast)
                width = min(kmax, max(active_chunks - 1, 0)) * mc
                if width > 0:
                    out.add("application", node_model.time_many(
                        flops.application_calls(
                            m, width, representation=representation,
                            k=mc)))
            out.add("barrier", t_barrier)
        return out

    raise DistributionError(f"unknown layout {layout!r}")
