"""What the end-to-end benchmark measures: workloads, metrics, bounds.

This module is the single source of truth the runner, the comparator and
the smoke test read; ``BENCHMARK.json`` at the repository root restates
the part automated runs read (the smoke test checks that the two agree).
"""

#: Seed used while developing a change, and the held-out seed its claim
#: must also hold on.
SEEDS = {"development": 0, "holdout": 1}

#: Measured seconds of one full run (``--seconds`` default; equals
#: ``run_seconds`` in ``BENCHMARK.json``).
RUN_SECONDS = 16
#: Most seconds one full workload run may take, set-up and checks
#: included (the smoke test holds the part beyond ``RUN_SECONDS`` to it).
WORKLOAD_BUDGET_S = 30

#: Backward-error ceiling above which an answer counts as wrong.
ETA_LIMIT = 1e-10

#: name -> tail percentile and the reason the workload exists.  The tail
#: is the highest round percentile that keeps about ten samples beyond it
#: at the workload's full-length sample count (``distributed`` completes
#: only ~16 requests a run, so its p60 keeps 6).
WORKLOADS = {
    "cold_solve": {
        "tail": 90,
        "why": ("Closed loop over distinct operators (AR n=2048, regrouped "
                "m_s=16, singular-minor n=512): the factor kernels do the "
                "work; no serve, wire or disk. Tail p90."),
    },
    "serve_hot": {
        "tail": 99,
        "why": ("Open-loop Poisson 250 req/s, then a closed window of 64, "
                "in-process against 4 warm n=2048 operators: coalescing "
                "and panel sweeps on memory hits, no factoring. Tail p99."),
    },
    "serve_tcp": {
        "tail": 98,
        "why": ("serve_hot's operators and mix at 60 req/s, then a closed "
                "window of 16, through the TCP JSON front end of a server "
                "subprocess: isolates wire and asyncio cost. Tail p98."),
    },
    "cache_churn": {
        "tail": 99,
        "why": ("Persistent cache, LRU of 4 over 16 stored n=1024 "
                "operators, Zipf(1.3) at 80 req/s plus 2 new operators/s: "
                "disk loads, evictions and publishes. Tail p99."),
    },
    "distributed": {
        "tail": 60,
        "why": ("Closed loop of fresh n=1024 operators factored and solved "
                "by 2 real worker processes, bulk and lookahead "
                "alternating: spawn, transport, barriers. Tail p60."),
    },
}

#: (name, unit, better, bound): the numbers a user of the solver sees
#: that repeat within their bound from run to run on the reference host.
#: ``bound`` is the share of the parent's median by which a metric may
#: worsen before a change counts as a regression.  Set-up is timed three
#: times a run, not hundreds, so it has the widest bound.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.10),
]

#: (name, unit, better): end-to-end numbers every untraced run also
#: reports, without a bound.  On the reference host none of them repeats
#: within 10% over ten seeds on every workload (README, "Sizing and
#: stability"), so a change is judged on them only by ``compare.py
#: pairs``, whose alternating pairs cancel the host's slow swings.
REPORTED = [
    ("latency_p50_ms", "ms", "lower"),
    ("latency_tail_ms", "ms", "lower"),
    ("throughput_rps", "req/s", "higher"),
    ("cpu_ms_per_req", "ms", "lower"),
]

#: (name, unit, better, moves): one layer's number, and the end-to-end
#: metric and workload(s) a change to that layer should move.  A layer a
#: workload does not exercise reads 0 on it.
PER_LAYER = [
    ("engine.plan.ms_p50", "ms", "lower", "latency_p50_ms@cold_solve"),
    ("core.factor.ms_p50", "ms", "lower",
     "latency_p50_ms@cold_solve, latency_tail_ms@cache_churn"),
    ("core.factor.gflops", "GFLOP/s", "higher",
     "latency_p50_ms@cold_solve, latency_tail_ms@cache_churn"),
    ("core.factor.calls", "count", "lower",
     "latency_p50_ms@cold_solve, latency_tail_ms@cache_churn"),
    ("core.solve.ms_per_rhs", "ms", "lower", "throughput_rps@serve_hot"),
    ("core.solve.gflops", "GFLOP/s", "higher", "throughput_rps@serve_hot"),
    ("core.solve.ref_ratio", "ratio", "lower", "throughput_rps@serve_hot"),
    ("core.refinement.sweeps_mean", "count", "lower",
     "latency_tail_ms@cold_solve"),
    ("engine.execute.ms_p50", "ms", "lower", "latency_p50_ms@serve_hot"),
    ("engine.execute.nrhs_mean", "count", "higher",
     "throughput_rps@serve_hot"),
    ("engine.cache.hit_ratio", "fraction", "higher",
     "latency_tail_ms@cache_churn"),
    ("engine.cache.evictions", "count", "lower",
     "latency_tail_ms@cache_churn"),
    ("engine.cache.bytes_charged", "B", "lower",
     "latency_tail_ms@cache_churn"),
    ("engine.cache_store.get_ms_p50", "ms", "lower",
     "latency_tail_ms@cache_churn"),
    ("engine.cache_store.get_ms_p99", "ms", "lower",
     "latency_tail_ms@cache_churn"),
    ("engine.cache_store.hit_ratio", "fraction", "higher",
     "latency_tail_ms@cache_churn"),
    ("engine.cache_store.put_ms_p50", "ms", "lower",
     "latency_tail_ms@cache_churn"),
    ("engine.cache_store.put_bytes", "B", "lower",
     "latency_tail_ms@cache_churn"),
    ("serve.queue_wait_ms_p50", "ms", "lower",
     "latency_p50_ms@serve_hot"),
    ("serve.queue_wait_ms_p99", "ms", "lower",
     "latency_tail_ms@serve_hot"),
    ("serve.batch_k_mean", "count", "higher", "throughput_rps@serve_hot"),
    ("serve.overloads", "count", "lower",
     "failed@serve_hot, failed@serve_tcp, failed@cache_churn"),
    ("serve.deadline_expirations", "count", "lower",
     "failed@serve_hot, failed@serve_tcp, failed@cache_churn"),
    ("serve.wire.overhead_ms_p50", "ms", "lower",
     "latency_p50_ms@serve_tcp"),
    ("serve.wire.decode_ms_p50", "ms", "lower", "latency_p50_ms@serve_tcp"),
    ("serve.wire.encode_ms_p50", "ms", "lower", "latency_p50_ms@serve_tcp"),
    ("serve.wire.bytes_per_req", "B", "lower", "latency_p50_ms@serve_tcp"),
    ("parallel.factor_ms_p50", "ms", "lower", "latency_p50_ms@distributed"),
    ("parallel.solve_ms_p50", "ms", "lower", "latency_p50_ms@distributed"),
    ("parallel.startup_ms_p50", "ms", "lower",
     "latency_p50_ms@distributed"),
    ("parallel.shift_words", "words", "lower",
     "latency_p50_ms@distributed"),
    ("parallel.broadcast_words", "words", "lower",
     "latency_p50_ms@distributed"),
    ("bench.gen_lag_p99_ms", "ms", "lower", "none (load generator health)"),
    ("bench.trace_overhead_pct", "%", "lower", "none (tracing cost)"),
    ("bench.samples", "count", "higher", "none (sample count)"),
    ("bench.input_gen_s", "s", "lower", "none (excluded from setup_s)"),
    ("bench.unattributed_pct", "%", "lower", "none (trace coverage)"),
    ("check.eta_max", "ratio", "lower", "failed@every workload"),
]

UNITS = {name: unit for name, unit, *_ in END_TO_END + REPORTED + PER_LAYER}
