"""Section 6.3's communication claim: the YTYᵀ form halves the volume.

Regenerates the message-volume table per block representation (the
sparsity-aware word counts of Figures 3–4), verifies "the YTYᵀ
representation of U requires [about] half the storage of the other
methods", and cross-checks against the simulator's actual broadcast
accounting.
"""

from repro.bench import format_table, write_result
from repro.core.flops import transform_words
from repro.parallel import simulate_factorization
from repro.toeplitz import kms_toeplitz


def test_transform_volume_table(benchmark):
    def run():
        return {m: {rep: transform_words(rep, m)
                    for rep in ("vy1", "vy2", "yty", "dense")}
                for m in (2, 4, 8, 16, 32, 64)}

    table = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [[m, v["vy1"], v["vy2"], v["yty"], v["dense"],
             f"{v['yty'] / v['vy2']:.2f}"]
            for m, v in sorted(table.items())]
    text = format_table(
        ["m", "vy1_words", "vy2_words", "yty_words", "dense_words",
         "yty/vy"],
        rows,
        title=("Section 6.3 — words to communicate one block "
               "transformation (sparsity-aware); the YTYᵀ form is "
               "≈ half the VY volume"))
    write_result("comm_volume", text)

    for m, v in table.items():
        if m >= 8:
            assert v["yty"] < 0.75 * v["vy2"]
            assert v["dense"] > v["vy1"]


def test_simulator_broadcast_volume_matches(benchmark):
    """The simulated broadcast byte counts must order the same way."""
    def run():
        t = kms_toeplitz(256, 0.5).regroup(16)
        out = {}
        for rep in ("vy2", "yty"):
            run_ = simulate_factorization(t, nproc=4, b=1,
                                          representation=rep,
                                          collect=False)
            out[rep] = run_.report.total_by_category().get("broadcast",
                                                           0.0)
        return out

    times = benchmark.pedantic(run, rounds=1, iterations=1)
    text = format_table(
        ["representation", "total_broadcast_seconds"],
        [[k, v] for k, v in times.items()],
        title="Simulated T3D broadcast time by representation (m=16)")
    write_result("comm_volume_simulated", text)
    assert times["yty"] < times["vy2"]
