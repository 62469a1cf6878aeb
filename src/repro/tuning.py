"""Configuration autotuning — the paper's §7 program, automated.

The paper closes with: *"An analysis of the computation and
communication tradeoffs for a given problem size … and machine size …
decides which of the three schemes is best suited."*  This module is
that decision procedure:

* :func:`choose_distribution` sweeps the ``b`` parameter (Versions
  1/2/3) through the closed-form analytic time model (optionally
  verifying the top candidates in the event simulator) and returns the
  best scheme — reproducing the paper's per-experiment optima;
* :func:`tune` combines the distribution choice with the serial-side
  knobs (algorithmic block size ``m_s``, reflector representation) into
  one recommended configuration.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.blas.cray import T3DNetworkParameters, t3d_node_model
from repro.core.regroup import choose_block_size
from repro.errors import ShapeError
from repro.parallel.analytic import analytic_factor_time
from repro.parallel.distributions import Layout

__all__ = ["DistributionChoice", "TuningResult", "choose_distribution",
           "tune"]


def _candidate_bs(n: int, m: int, nproc: int) -> list[float]:
    """The b values worth trying: powers of two up to blocks-per-PE for
    grouping, divisors of m for spreading."""
    p = n // m
    cands: list[float] = [1.0]
    b = 2
    while b * nproc <= p:
        cands.append(float(b))
        b *= 2
    s = 2
    while s <= min(m, nproc) and m % s == 0:
        cands.append(1.0 / s)
        s *= 2
    return cands


@dataclass(frozen=True)
class DistributionChoice:
    """One evaluated data-distribution candidate."""

    b: float
    version: int
    predicted_seconds: float
    simulated_seconds: float | None = None

    @property
    def seconds(self) -> float:
        return (self.simulated_seconds
                if self.simulated_seconds is not None
                else self.predicted_seconds)


def choose_distribution(n: int, m: int, nproc: int, *,
                        representation: str = "vy2",
                        node_model=None,
                        network: T3DNetworkParameters | None = None,
                        verify_top: int = 0,
                        matrix=None
                        ) -> tuple[DistributionChoice,
                                   list[DistributionChoice]]:
    """Pick the Figure-5 distribution minimizing modeled time-to-factor.

    ``verify_top > 0`` re-times that many leading candidates in the
    event simulator (requires ``matrix``), replacing the analytic
    estimate with the simulated one before the final ranking.
    """
    if n % m != 0:
        raise ShapeError(f"n={n} not a multiple of m={m}")
    if nproc <= 0:
        raise ShapeError(f"nproc must be positive, got {nproc}")
    if node_model is None:
        node_model = t3d_node_model()
    if network is None:
        network = T3DNetworkParameters()
    choices: list[DistributionChoice] = []
    for b in _candidate_bs(n, m, nproc):
        pred = analytic_factor_time(n, m, nproc, b=b,
                                    representation=representation,
                                    node_model=node_model,
                                    network=network).total
        choices.append(DistributionChoice(b=b,
                                          version=Layout(nproc, b).version,
                                          predicted_seconds=pred))
    choices.sort(key=lambda c: c.predicted_seconds)
    if verify_top > 0:
        if matrix is None:
            raise ShapeError("verify_top needs the matrix to simulate")
        from repro.parallel import simulate_factorization
        verified = []
        for c in choices[:verify_top]:
            sim = simulate_factorization(
                matrix, nproc, b=c.b, representation=representation,
                node_model=node_model, network=network,
                collect=False).time
            verified.append(DistributionChoice(
                b=c.b, version=c.version,
                predicted_seconds=c.predicted_seconds,
                simulated_seconds=sim))
        choices = sorted(verified, key=lambda c: c.seconds) + \
            choices[verify_top:]
    return choices[0], choices


@dataclass
class TuningResult:
    """Recommended configuration for a (problem, machine) pair.

    This is the solver engine's planner backend: ``tune`` picks the
    knobs, :meth:`to_plan` turns the recommendation into an executable
    :class:`~repro.engine.SolverPlan` (and
    ``repro.engine.plan(op, machine=MachineSpec(...))`` runs the same
    machinery in one step).
    """

    block_size: int
    representation: str
    distribution: DistributionChoice | None
    predicted_seconds: float
    nproc: int = 1
    candidates: list = field(default_factory=list)

    def to_plan(self, op, *, assume: str = "auto"):
        """Materialize this recommendation as a
        :class:`~repro.engine.SolverPlan` for ``op``."""
        from repro.engine.plan import plan as make_plan
        pl = make_plan(op, assume=assume,
                       representation=self.representation,
                       block_size=(self.block_size
                                   if self.nproc <= 1 else None))
        return pl.with_(
            nproc=self.nproc,
            distribution_b=(self.distribution.b
                            if self.distribution is not None else None),
            predicted_seconds=self.predicted_seconds)

    def describe(self) -> str:
        """One-line human-readable summary of the recommendation."""
        parts = [f"m_s = {self.block_size}",
                 f"representation = {self.representation}"]
        if self.distribution is not None:
            parts.append(
                f"distribution = Version {self.distribution.version} "
                f"(b = {self.distribution.b})")
        parts.append(f"predicted time = "
                     f"{self.predicted_seconds * 1e3:.3f} ms")
        return ", ".join(parts)


def tune(n: int, m: int, *, nproc: int = 1,
         node_model=None,
         network: T3DNetworkParameters | None = None,
         representations: tuple[str, ...] = ("vy1", "vy2", "yty"),
         block_sizes: list[int] | None = None) -> TuningResult:
    """End-to-end configuration choice.

    Serial (``nproc = 1``): pick ``(m_s, representation)`` by the node
    model through the primitive-call decomposition.  Parallel: fix the
    structural block size (regrouping changes the distribution problem)
    and pick ``(representation, b)`` by the analytic machine model.
    """
    if node_model is None:
        node_model = t3d_node_model()
    if nproc <= 1:
        best = None
        cands = []
        for rep in representations:
            ms, preds = choose_block_size(
                n, m, node_model, representation=rep,
                candidates=block_sizes)
            for pr in preds:
                cands.append((rep, pr))
            sec = min(pr.seconds for pr in preds)
            if best is None or sec < best[2]:
                best = (rep, ms, sec)
        rep, ms, sec = best
        return TuningResult(block_size=ms, representation=rep,
                            distribution=None, predicted_seconds=sec,
                            nproc=1, candidates=cands)
    best = None
    cands = []
    for rep in representations:
        choice, all_choices = choose_distribution(
            n, m, nproc, representation=rep, node_model=node_model,
            network=network)
        cands.extend((rep, c) for c in all_choices)
        if best is None or choice.seconds < best[1].seconds:
            best = (rep, choice)
    rep, choice = best
    return TuningResult(block_size=m, representation=rep,
                        distribution=choice,
                        predicted_seconds=choice.seconds,
                        nproc=nproc, candidates=cands)
