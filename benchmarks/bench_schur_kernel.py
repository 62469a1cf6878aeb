"""Schur factor against a dense Cholesky of the same ``T``, same run.

The block Schur algorithm (Sections 5–6) factors an SPD block Toeplitz
matrix in about ``4mn²`` flops against Cholesky's ``n³/3``, but it runs
one Python-level column step per scalar column.  This bench times
``schur_spd_factor`` against ``scipy.linalg.cholesky`` (LAPACK
``?potrf``, no finiteness scan) of the same dense ``T`` at
n ∈ {1024, 2048} with m = 4, 7 times each, every Schur factor timed
directly before its ``?potrf``, so both sides of a pair see the same host.

Asserted: ‖R − R_chol‖/‖R‖ ≤ 1e-12 at every size, and a Schur/``?potrf``
time ratio ≤ 0.85 at n = 2048, judged on the median of the 7 per-pair
ratios: a slow stretch that hits one side of one pair moves one ratio,
where it would move the minimum of that side's times.  The table also
prints the ratio of the two minima.  Run it with BLAS pinned to one
thread (``OPENBLAS_NUM_THREADS=1``), the setting ``benchmarks/e2e``
measures under; a threaded ``?potrf`` on a multi-core host is a
different comparison.  Results land in ``schur_kernel.txt``.
"""

import time

import numpy as np
import scipy.linalg as sla

from repro.bench import format_table, write_result
from repro.core import schur_spd_factor
from repro.core.flops import factorization_flops
from repro.toeplitz import ar_block_toeplitz

BLOCKS = (256, 512)
M = 4
REPEATS = 7
RATIO = 0.85
PARITY = 1e-12


def _seconds(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def run_schur_kernel_bench(p_blocks: int, m: int) -> dict:
    t = ar_block_toeplitz(p_blocks, m, seed=0)
    dense = t.dense()
    schur, chol = [], []
    for _ in range(REPEATS):
        schur.append(_seconds(lambda: schur_spd_factor(t)))
        chol.append(_seconds(
            lambda: sla.cholesky(dense, check_finite=False)))
    r = schur_spd_factor(t).r
    ref = sla.cholesky(dense, check_finite=False)
    return {"n": t.order, "schur_seconds": min(schur),
            "potrf_seconds": min(chol),
            "ratio": float(np.median(np.divide(schur, chol))),
            "ratio_of_mins": min(schur) / min(chol),
            "model_mflop": factorization_flops(t.order, m) / 1e6,
            "parity": float(np.linalg.norm(r - ref) / np.linalg.norm(r))}


def test_schur_factor_beats_dense_cholesky():
    cells = [run_schur_kernel_bench(p, M) for p in BLOCKS]
    rows = [[c["n"], f"{c['model_mflop']:.1f}",
             f"{c['schur_seconds'] * 1e3:.1f}",
             f"{c['potrf_seconds'] * 1e3:.1f}", f"{c['ratio']:.3f}",
             f"{c['ratio_of_mins']:.3f}", f"{c['parity']:.1e}"]
            for c in cells]
    write_result("schur_kernel", format_table(
        ["n", "schur_mflop", "schur_ms", "potrf_ms", "ratio",
         "ratio_of_mins", "parity"],
        rows,
        title=(f"schur_spd_factor vs scipy.linalg.cholesky of the dense T, "
               f"m={M} (same run, {REPEATS} pairs: times are minima, "
               f"ratio is the median per-pair ratio)")))
    for c in cells:
        assert c["parity"] <= PARITY, c
    assert cells[-1]["ratio"] <= RATIO, cells[-1]
