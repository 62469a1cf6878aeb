"""Packed-factor solves against dense triangular solves, same run.

The Schur factorizations keep ``R`` packed (``n(n+1)/2`` words, LAPACK's
rectangular full packed format, :mod:`repro.core.packed`).  This bench
checks that halving the factor's memory did not cost solve speed: at
n = 2048 it times ``SPDFactorization.solve`` (two packed sweeps: ``?tfsm``
on panels, ``?trsv``/``?gemv`` on the three RFP blocks for one vector)
against a ``scipy.linalg.solve_triangular`` pair on the same ``R``
unpacked, interleaved, min of 25, for k ∈ {1, 2, 8, 32}.

Asserted: every ratio ≤ 1.05 and parity ≤ 1e-10.  Run it with BLAS
pinned to one thread, the setting ``benchmarks/e2e`` measures under
(``OPENBLAS_NUM_THREADS=1``): on a shared two-core host a threaded
level-2 call can stall for a whole process, which times the host rather
than the kernels.  Results land in ``packed_solve.txt``.
"""

import time

import numpy as np
import scipy.linalg as sla

from repro.bench import format_table, write_result
from repro.core import schur_spd_factor
from repro.toeplitz import ar_block_toeplitz

WIDTHS = (1, 2, 8, 32)
REPEATS = 25
SLOWDOWN = 1.05
PARITY = 1e-10


def _seconds(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def run_packed_solve_bench(p_blocks: int, m: int):
    fact = schur_spd_factor(ar_block_toeplitz(p_blocks, m, seed=0))
    r = np.array(fact.r)
    rng = np.random.default_rng(4)

    def dense(b):
        y = sla.solve_triangular(r, b, trans=1, check_finite=False)
        return sla.solve_triangular(r, y, check_finite=False)

    cells = []
    for k in WIDTHS:
        b = rng.standard_normal((fact.order, k))
        ref = dense(b)
        parity = float(np.max(np.abs(fact.solve(b) - ref))
                       / np.max(np.abs(ref)))
        packed_s = dense_s = np.inf
        for _ in range(REPEATS):
            packed_s = min(packed_s, _seconds(lambda: fact.solve(b)))
            dense_s = min(dense_s, _seconds(lambda: dense(b)))
        cells.append({"nrhs": k, "packed_seconds": packed_s,
                      "dense_seconds": dense_s,
                      "ratio": packed_s / dense_s, "parity": parity})
    return fact.order, cells


def test_packed_solve_keeps_dense_speed():
    n, cells = run_packed_solve_bench(512, 4)
    rows = [[c["nrhs"], f"{c['packed_seconds'] * 1e3:.3f}",
             f"{c['dense_seconds'] * 1e3:.3f}", f"{c['ratio']:.3f}",
             f"{c['parity']:.1e}"] for c in cells]
    write_result("packed_solve", format_table(
        ["k", "packed_ms", "dense_trsm_ms", "ratio", "parity"], rows,
        title=(f"SPDFactorization.solve on packed R vs a solve_triangular "
               f"pair on dense R, n={n} (same run, min of {REPEATS})")))
    for c in cells:
        assert c["parity"] <= PARITY, c
        assert c["ratio"] <= SLOWDOWN, c
