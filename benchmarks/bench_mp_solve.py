"""Distributed data plane: lookahead vs bulk factorization + mp solves.

Two questions about the real multiprocess backend.  First, does the
Section-7 lookahead schedule beat the bulk-synchronous one?  Bulk waits
at every step for the pivot owner's reflector and then at a process
barrier; lookahead replaces both with write-once flag waits, so the
next build overlaps the other PEs' application work and its critical
path should lose the barrier term.  Second, what do the distributed triangular solves
cost?  The forward/backward sweeps run one broadcast per block row (and
one reduce in the backward sweep), m·k words each — we record wall
seconds and exact word counts for a vector and a k=32 panel.

Cells are (p_blocks, m=8, NP=4) under the Version-1 cyclic
distribution — the layout the lookahead schedule targets.  The gated
metric is ``lookahead_speedup_vs_bulk``: the acceptance bar is
lookahead strictly beating bulk at every benchmarked cell, and the
bulk ``barrier`` vs lookahead ``wait`` phase seconds show *why* (the
barrier-dominated critical path shrinks).  Results land in
``BENCH_mp_solve.json`` (a CI artifact).
"""

import time

import numpy as np

from repro.bench import format_table, write_json_result, write_result
from repro.bench.runner import full_scale
from repro.core.schur_spd import schur_spd_factor
from repro.parallel import (
    make_layout,
    mp_factorization,
    mp_triangular_solve,
    multiprocess_available,
)
from repro.toeplitz import ar_block_toeplitz

NPROC = 4
BLOCK = 8
PANEL_K = 32


def _wall(fn, repeats=3):
    best = np.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _phase_total(run, phase):
    return float(run.breakdown().get(phase, 0.0))


def run_mp_solve_bench(sizes):
    cells = []
    for p_blocks in sizes:
        t = ar_block_toeplitz(p_blocks, BLOCK, seed=0)
        serial = schur_spd_factor(t)
        layout = make_layout(NPROC, b=1)

        bulk_seconds = _wall(
            lambda: mp_factorization(t, NPROC, collect=False))
        la_seconds = _wall(
            lambda: mp_factorization(t, NPROC, collect=False,
                                     schedule="lookahead"))
        bulk_run = mp_factorization(t, NPROC)
        la_run = mp_factorization(t, NPROC, schedule="lookahead")
        fact_err = max(
            float(np.max(np.abs(bulk_run.r - serial.r))),
            float(np.max(np.abs(la_run.r - serial.r))))

        rhs_vec = np.ones(t.order)
        rhs_panel = np.arange(
            t.order * PANEL_K, dtype=float).reshape(t.order, PANEL_K)
        rhs_panel /= rhs_panel.max()
        vec_seconds = _wall(
            lambda: mp_triangular_solve(serial.r, layout, rhs_vec,
                                        block_size=BLOCK))
        panel_seconds = _wall(
            lambda: mp_triangular_solve(serial.r, layout, rhs_panel,
                                        block_size=BLOCK))
        vec_run = mp_triangular_solve(serial.r, layout, rhs_vec,
                                      block_size=BLOCK)
        panel_run = mp_triangular_solve(serial.r, layout, rhs_panel,
                                        block_size=BLOCK)
        solve_err = max(
            float(np.max(np.abs(vec_run.x - serial.solve(rhs_vec)))),
            float(np.max(np.abs(panel_run.x - serial.solve(rhs_panel)))))

        cells.append({
            "num_blocks": p_blocks, "block_size": BLOCK,
            "order": p_blocks * BLOCK, "nproc": NPROC,
            "bulk_factor_seconds": bulk_seconds,
            "lookahead_factor_seconds": la_seconds,
            "lookahead_speedup_vs_bulk": bulk_seconds / la_seconds,
            "bulk_barrier_seconds": _phase_total(bulk_run, "barrier"),
            "lookahead_wait_seconds": _phase_total(la_run, "wait"),
            "factor_max_abs_err": fact_err,
            "solve_vector_seconds": vec_seconds,
            "solve_panel_seconds": panel_seconds,
            "panel_nrhs": PANEL_K,
            "solve_broadcast_words_total":
                sum(panel_run.broadcast_words_by_rank().values()),
            "solve_reduce_words_total":
                sum(panel_run.reduce_words_by_rank().values()),
            "solve_max_abs_err": solve_err,
            "start_method": bulk_run.start_method,
        })
    return cells


def test_mp_solve_lookahead(benchmark):
    ok, reason = multiprocess_available()
    if not ok:
        import pytest
        pytest.skip(f"multiprocess backend unavailable: {reason}")

    sizes = (32, 64) if full_scale() else (16, 24)
    cells = benchmark.pedantic(
        run_mp_solve_bench, args=(sizes,), rounds=1, iterations=1)

    rows = [[c["num_blocks"], c["order"], c["nproc"],
             f"{c['bulk_factor_seconds'] * 1e3:.2f}",
             f"{c['lookahead_factor_seconds'] * 1e3:.2f}",
             f"{c['lookahead_speedup_vs_bulk']:.2f}x",
             f"{c['bulk_barrier_seconds'] * 1e3:.1f}",
             f"{c['lookahead_wait_seconds'] * 1e3:.1f}",
             f"{c['solve_vector_seconds'] * 1e3:.2f}",
             f"{c['solve_panel_seconds'] * 1e3:.2f}"] for c in cells]
    text = format_table(
        ["p", "n", "NP", "bulk_ms", "lookahead_ms", "speedup",
         "barrier_ms", "wait_ms", "solve_ms", "panel_ms"],
        rows,
        title=(f"Lookahead vs bulk mp factorization + distributed solves "
               f"(m={BLOCK}, NP={NPROC}, k={PANEL_K} panels)"))
    write_result("mp_solve", text)

    write_json_result("mp_solve", {
        "workload": {"block_size": BLOCK, "nproc": NPROC,
                     "panel_nrhs": PANEL_K, "matrix": "ar(seed=0)",
                     "full_scale": full_scale()},
        "cells": cells,
    })

    for c in cells:
        # the acceptance bar: lookahead beats bulk at every cell
        assert c["lookahead_speedup_vs_bulk"] > 1.0, c
        # and the barrier-dominated critical path shrinks
        assert c["lookahead_wait_seconds"] < c["bulk_barrier_seconds"], c
        assert c["factor_max_abs_err"] <= 1e-10, c
        assert c["solve_max_abs_err"] <= 1e-10, c
