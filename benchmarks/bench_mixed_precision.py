"""Mixed-precision factorization: fp32 factor + fp64 recovery.

The precision axis trades factorization bandwidth for refinement
sweeps: a float32 block Schur factorization streams half the bytes of
the fp64 one (and runs its level-3 work through ``sgemm``), and the
Section 8.1 refinement loop (fp64 FFT residuals) recovers double
accuracy in a handful of sweeps whenever ``cond · eps32`` is small.
This bench factors the same SPD block Toeplitz operator at every
precision over a size sweep, timing the factorization alone, then
solves through refinement and compares the recovered residual against
the plain fp64 direct solve.

The workload uses the level-3-rich shape the paper's blocking analysis
recommends (large algorithmic block ``m`` with a ``panel``-column inner
sweep), which is where reduced precision pays: tiny blocks are
dominated by precision-independent per-reflector work.

Asserted: at every size the refined fp32 residual is within 10×
of the fp64 direct residual, the refinement loop converges, and
(full-scale runs) the fp32 factorization beats fp64 by ≥ 1.5× at
n ≥ 2048.  Results land in ``BENCH_mixed_precision.json`` (a CI
artifact).
"""

import time

import numpy as np

from repro.bench import format_table, write_json_result, write_result
from repro.bench.runner import full_scale
from repro.core.precision import PRECISIONS
from repro.core.refinement import refine
from repro.core.schur_spd import SchurOptions, schur_spd_factor
from repro.toeplitz import ar_block_toeplitz
from repro.toeplitz.matvec import BlockCirculantEmbedding

RESIDUAL_RATIO_LIMIT = 10.0
SPEEDUP_FLOOR = 1.5
PANEL = 96


def _sizes():
    return (512, 1024, 2048, 4096) if full_scale() else (512, 1024)


def _block(n):
    """Algorithmic block size: large blocks keep the elimination inside
    level-3 BLAS, which is where reduced precision pays (tiny blocks are
    dominated by precision-independent per-reflector work)."""
    return min(1024, n // 2)


def _repeats(n):
    return {512: 6, 1024: 5, 2048: 5}.get(n, 3)


def _relative_residual(matvec, x, b):
    return float(np.linalg.norm(matvec(x) - b) / np.linalg.norm(b))


def run_size(n):
    m = _block(n)
    t = ar_block_toeplitz(n // m, m, seed=0)
    matvec = BlockCirculantEmbedding(t)
    b = np.random.default_rng(1).standard_normal(n)
    repeats = _repeats(n)

    # Interleave the precisions within each repeat so min-of-repeats is
    # insensitive to machine-load drift between the timed groups.
    best = {prec: np.inf for prec in PRECISIONS}
    facts = {}
    for _ in range(repeats):
        for prec in PRECISIONS:
            opts = SchurOptions(precision=prec, panel=PANEL)
            t0 = time.perf_counter()
            facts[prec] = schur_spd_factor(t, options=opts)
            best[prec] = min(best[prec], time.perf_counter() - t0)

    row = {"order": n, "block_size": m, "panel": PANEL}
    for prec in PRECISIONS:
        seconds, fact = best[prec], facts[prec]
        if prec == "fp64":
            x = fact.solve(b)
            residual = _relative_residual(matvec, x, b)
            sweeps = 0
        else:
            res = refine(fact, t, b)
            assert res.converged, (n, prec)
            residual = _relative_residual(matvec, res.x, b)
            sweeps = res.iterations
        row[prec] = {
            "factor_seconds": seconds,
            "factor_dtype": np.dtype(fact.dtype).name,
            "residual": residual,
            "refine_sweeps": sweeps,
        }
    row["fp32"]["factor_speedup_vs_fp64"] = (
        row["fp64"]["factor_seconds"] / row["fp32"]["factor_seconds"])
    row["fp32"]["residual_ratio_vs_fp64"] = (
        row["fp32"]["residual"] / max(row["fp64"]["residual"], 1e-300))
    return row


def test_mixed_precision_factorization(benchmark):
    cells = benchmark.pedantic(
        lambda: [run_size(n) for n in _sizes()], rounds=1, iterations=1)

    rows = [[c["order"], c["block_size"],
             f"{c['fp64']['factor_seconds'] * 1e3:.1f}",
             f"{c['fp32']['factor_seconds'] * 1e3:.1f}",
             f"{c['fp32']['factor_speedup_vs_fp64']:.2f}x",
             c["fp32"]["refine_sweeps"],
             f"{c['fp32']['residual_ratio_vs_fp64']:.2f}"]
            for c in cells]
    text = format_table(
        ["n", "m", "fp64_ms", "fp32_ms", "fp32_speedup", "fp32_sweeps",
         "fp32_res_ratio"],
        rows,
        title=(f"Reduced-precision factor + fp64 refinement recovery "
               f"(panel={PANEL}, residual ratios vs fp64 direct solve)"))
    write_result("mixed_precision", text)
    write_json_result("mixed_precision", {
        "workload": {"block_size": {n: _block(n) for n in _sizes()},
                     "panel": PANEL, "matrix": "ar(seed=0)",
                     "full_scale": full_scale(),
                     "sizes": list(_sizes())},
        "residual_ratio_limit": RESIDUAL_RATIO_LIMIT,
        "speedup_floor": SPEEDUP_FLOOR,
        "cells": cells,
    })

    for c in cells:
        # accuracy parity: refinement recovers fp64-level residuals
        assert (c["fp32"]["residual_ratio_vs_fp64"]
                <= RESIDUAL_RATIO_LIMIT), (c["order"], c["fp32"])
        assert c["fp32"]["refine_sweeps"] >= 1, c["order"]
        assert c["fp32"]["factor_dtype"] == "float32", c
    # bandwidth win: fp32 factors ≥ 1.5× faster once n ≥ 2048
    for c in cells:
        if c["order"] >= 2048:
            assert (c["fp32"]["factor_speedup_vs_fp64"]
                    >= SPEEDUP_FLOOR), c
