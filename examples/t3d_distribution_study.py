"""Distributed-memory study on the simulated Cray T3D (Section 7).

Runs the block Schur factorization through the machine simulator under
the three generator data-distribution schemes of Figure 5, verifies the
distributed numerics against the serial factorization — on both the
simulated backend and, where the platform allows it, the real
multiprocess backend (one worker process per PE) — and prints the
time/phase breakdowns behind the paper's Experiments 1–3.

Run:  python examples/t3d_distribution_study.py
"""

import numpy as np

import repro.engine as engine
from repro import kms_toeplitz, schur_spd_factor
from repro.parallel import (
    analytic_factor_time,
    mp_factorization,
    multiprocess_available,
    simulate_factorization,
)


def verify_backends(t, nproc, b_values):
    """Both backends reproduce the serial factor under every scheme."""
    serial = schur_spd_factor(t).r
    mp_ok, mp_reason = multiprocess_available()
    for b in b_values:
        pl = engine.plan(t, nproc=nproc, distribution_b=b,
                         cache="off")
        sim = simulate_factorization(t, plan=pl)
        err = np.max(np.abs(sim.r - serial))
        line = (f"b={b}: |R_sim − R_serial| = {err:.2e} "
                f"({sim.time * 1e3:.2f} ms virtual)")
        if mp_ok:
            real = mp_factorization(t, plan=pl)
            rerr = np.max(np.abs(real.r - serial))
            line += (f";  real backend {rerr:.2e} "
                     f"({real.wall_seconds * 1e3:.2f} ms wall, "
                     f"{real.nproc} workers)")
        print(line)
    if not mp_ok:
        print(f"(real multiprocess backend unavailable: {mp_reason})")


def sweep(t, nproc, b_values, label):
    print(f"\n--- {label} "
          f"(n={t.order}, m={t.block_size}, NP={nproc}) ---")
    print(f"{'b':>6}  {'scheme':>8}  {'sim time':>10}  "
          f"{'analytic':>10}  breakdown of slowest PE")
    for b in b_values:
        run = simulate_factorization(t, nproc=nproc, b=b, collect=False)
        ana = analytic_factor_time(t.order, t.block_size, nproc, b=b)
        scheme = "v3" if b < 1 else ("v1" if b == 1 else "v2")
        bd = ", ".join(f"{k} {v * 1e3:.1f}ms"
                       for k, v in sorted(run.breakdown().items(),
                                          key=lambda kv: -kv[1])[:3])
        print(f"{b:>6}  {scheme:>8}  {run.time * 1e3:8.2f}ms  "
              f"{ana.total * 1e3:8.2f}ms  {bd}")


def main():
    # Verify the distributed algorithm computes the serial factor,
    # planning each configuration through the engine (the plan fixes
    # nproc, the distribution and the representation; both backends
    # then execute the identical schedule).
    verify_backends(kms_toeplitz(128, 0.5).regroup(4),
                    nproc=4, b_values=(1, 2, 0.5))

    # Scaled-down versions of the paper's three experiments
    # (run `pytest benchmarks/ --benchmark-only` for the full figures).
    sweep(kms_toeplitz(512, 0.5), nproc=16,
          b_values=(1, 2, 4, 8, 16, 32),
          label="Experiment 1 (point Toeplitz)")
    sweep(kms_toeplitz(512, 0.5).regroup(8), nproc=16,
          b_values=(0.25, 0.5, 1, 2, 4),
          label="Experiment 2 (m=8)")
    sweep(kms_toeplitz(1024, 0.5).regroup(32), nproc=16,
          b_values=(1, 0.5, 0.25, 0.125),
          label="Experiment 3 (m=32, spreading)")


if __name__ == "__main__":
    main()
