"""Real multiprocess backend: wall-clock vs serial, across distributions.

The simulated T3D answers "what would the 1994 machine do"; this bench
answers "what does *this* machine do" — one worker process per PE over
shared memory, real barriers, real clocks.  It factors the same SPD
block Toeplitz operator serially and with p ∈ {1, 2, 4} PEs under the
paper's three data distributions (Version 1: b=1, Version 2: b=2,
Version 3: b=1/2) and records wall-clock seconds plus speedup over the
serial block Schur factorization.

Beside that grid, an n-sweep cell factors n = 1024 (m = 4) on NP = 2
with both schedules, bulk and lookahead, and records the slowest PE's
phase seconds — where the wall time goes at a size that is no longer
start-up bound.

Neither size beats the serial loop — process synchronization costs tens
of microseconds where the paper's shmem puts cost ~1 — so the assertion
is parity (every backend/distribution/schedule reproduces serial R to
1e-10) and completeness (every cell measured), not speedup.  Results
land in ``BENCH_mp_backend.json`` (a CI artifact).
"""

import time

import numpy as np

from repro.bench import format_table, write_json_result, write_result
from repro.bench.runner import full_scale
from repro.core.schur_spd import schur_spd_factor
from repro.parallel import mp_factorization, multiprocess_available
from repro.toeplitz import ar_block_toeplitz

#: (label, b) — the three Figure-5 distributions.
DISTRIBUTIONS = [("v1 cyclic", 1), ("v2 adjacent", 2), ("v3 spread", 0.5)]
NPROCS = [1, 2, 4]
#: The n-sweep cell: (p_blocks, m, NP), run under both schedules.
SWEEP = (256, 4, 2)
SCHEDULES = ("bulk", "lookahead")


def _wall(fn, repeats=3):
    best = np.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def run_mp_bench(p_blocks, m):
    t = ar_block_toeplitz(p_blocks, m, seed=0)
    serial_fact = schur_spd_factor(t)
    serial_seconds = _wall(lambda: schur_spd_factor(t))

    cells = []
    for label, b in DISTRIBUTIONS:
        for nproc in NPROCS:
            if b < 1 and (m % round(1 / b) != 0 or round(1 / b) > nproc):
                continue   # spread needs m % s == 0 and s ≤ NP
            run = mp_factorization(t, nproc, b=b)
            err = float(np.max(np.abs(run.r - serial_fact.r)))
            seconds = _wall(
                lambda nproc=nproc, b=b:
                mp_factorization(t, nproc, b=b, collect=False))
            cells.append({
                "distribution": label, "b": b, "nproc": nproc,
                "version": run.layout.version,
                "wall_seconds": seconds,
                "speedup_vs_serial": serial_seconds / seconds,
                "max_abs_err_vs_serial": err,
                "shift_words_total": sum(run.words_by_rank().values()),
                "broadcast_words_total":
                    sum(run.broadcast_words_by_rank().values()),
                "start_method": run.start_method,
            })
    return serial_seconds, cells


def run_sweep(p_blocks, m, nproc):
    """Both schedules at one larger size, with the slowest PE's phases."""
    t = ar_block_toeplitz(p_blocks, m, seed=0)
    serial_r = schur_spd_factor(t).r
    serial_seconds = _wall(lambda: schur_spd_factor(t))
    cells = []
    for schedule in SCHEDULES:
        run = mp_factorization(t, nproc, schedule=schedule)
        seconds = _wall(
            lambda schedule=schedule:
            mp_factorization(t, nproc, schedule=schedule, collect=False))
        cells.append({
            "order": p_blocks * m, "block_size": m, "nproc": nproc,
            "schedule": schedule,
            "wall_seconds": seconds,
            "serial_seconds": serial_seconds,
            "speedup_vs_serial": serial_seconds / seconds,
            "max_abs_err_vs_serial":
                float(np.max(np.abs(run.r - serial_r))),
            "slowest_pe_phase_seconds": run.breakdown(),
            "shift_words_total": sum(run.words_by_rank().values()),
            "broadcast_words_total":
                sum(run.broadcast_words_by_rank().values()),
        })
    return cells


def test_mp_backend_speedup(benchmark):
    ok, reason = multiprocess_available()
    if not ok:
        import pytest
        pytest.skip(f"multiprocess backend unavailable: {reason}")

    p_blocks, m = (64, 8) if full_scale() else (24, 4)
    serial_seconds, cells = benchmark.pedantic(
        run_mp_bench, args=(p_blocks, m), rounds=1, iterations=1)
    sweep = run_sweep(*SWEEP)

    rows = [[c["distribution"], c["b"], c["nproc"],
             f"{c['wall_seconds'] * 1e3:.2f}",
             f"{c['speedup_vs_serial']:.2f}x",
             f"{c['max_abs_err_vs_serial']:.1e}",
             c["shift_words_total"]] for c in cells]
    text = format_table(
        ["distribution", "b", "NP", "wall_ms", "speedup", "err", "words"],
        rows,
        title=(f"Real multiprocess backend, n={p_blocks * m} "
               f"(p={p_blocks}, m={m}); serial block Schur = "
               f"{serial_seconds * 1e3:.2f} ms"))
    phase_names = sorted({k for c in sweep
                          for k in c["slowest_pe_phase_seconds"]})
    text += "\n\n" + format_table(
        ["schedule", "wall_ms", "speedup", "err"] + phase_names,
        [[c["schedule"], f"{c['wall_seconds'] * 1e3:.1f}",
          f"{c['speedup_vs_serial']:.2f}x",
          f"{c['max_abs_err_vs_serial']:.1e}"]
         + [f"{c['slowest_pe_phase_seconds'].get(k, 0.0) * 1e3:.1f}"
            for k in phase_names] for c in sweep],
        title=(f"n-sweep: n={sweep[0]['order']}, m={sweep[0]['block_size']}, "
               f"NP={sweep[0]['nproc']}; serial block Schur = "
               f"{sweep[0]['serial_seconds'] * 1e3:.2f} ms; phase columns "
               f"are the slowest PE's milliseconds"))
    write_result("mp_backend", text)

    write_json_result("mp_backend", {
        "workload": {"num_blocks": p_blocks, "block_size": m,
                     "order": p_blocks * m, "matrix": "ar(seed=0)",
                     "full_scale": full_scale()},
        "serial_seconds": serial_seconds,
        "cells": cells,
        "sweep": sweep,
    })

    # completeness: every nproc ran for every applicable distribution
    measured = {(c["distribution"], c["nproc"]) for c in cells}
    for label, b in DISTRIBUTIONS:
        for nproc in NPROCS:
            if b < 1 and (m % round(1 / b) != 0 or round(1 / b) > nproc):
                continue
            assert (label, nproc) in measured
    assert [c["schedule"] for c in sweep] == list(SCHEDULES)
    # parity: real workers reproduce serial R in every cell
    for c in cells + sweep:
        assert c["max_abs_err_vs_serial"] <= 1e-10, c
