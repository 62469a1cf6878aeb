"""Ablation: lookahead (overlapped build) vs. bulk-synchronous Version 1.

Section 6.5's overlap remark, made concrete: the pipelined program
hides the pivot owner's serial build behind the other PEs' application
work (no barrier, pivot chain shipped point-to-point, depth-1
lookahead), at the cost of fine-grained per-block messaging.  The table
shows the regime change: bulk wins at small NP (few, large aggregated
shifts), lookahead wins once the per-step serial fraction matters.
"""

from repro.bench import bench_scale, format_table, write_result
from repro.parallel import simulate_factorization
from repro.toeplitz import kms_toeplitz

NPS = (4, 8, 16, 32, 64)


def run_comparison(n: int, m: int):
    t = kms_toeplitz(n, 0.5).regroup(m)
    rows = []
    for npp in NPS:
        plain = simulate_factorization(t, nproc=npp, b=1,
                                       collect=False).time
        look = simulate_factorization(t, nproc=npp, b=1,
                                      schedule="lookahead",
                                      collect=False).time
        rows.append([npp, plain, look, f"{plain / look:.2f}x"])
    return rows


def test_lookahead_ablation(benchmark):
    n = bench_scale(quick=1024, full=2048)
    m = 8
    rows = benchmark.pedantic(run_comparison, args=(n, m),
                              rounds=1, iterations=1)
    text = format_table(
        ["NP", "bulk_s", "lookahead_s", "speedup"],
        rows,
        title=(f"Lookahead ablation — {n}×{n}, m={m}, Version 1 layout "
               "(§6.5 overlap)"))
    write_result("lookahead_ablation", text)

    speedups = {npp: plain / look for npp, plain, look, _ in rows}
    # the overlap must pay at scale …
    assert max(speedups[npp] for npp in NPS[-2:]) > 1.05
    # … and the crossover structure exists (small NP favors bulk or ties)
    assert speedups[NPS[0]] < 1.1
