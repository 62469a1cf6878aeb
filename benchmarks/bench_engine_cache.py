"""Factorization-cache throughput: factor once, solve many.

The serve-many-RHS workload behind the engine cache: ``k`` separate
``solve`` calls against the same operator.  Without the cache each call
pays the ``O(m_s n²)`` factorization; with it only the first does, and
the remaining ``k − 1`` calls are ``O(n²/m_s)``-ish triangular solves.
With ``m_s = 16`` the factor/solve flop ratio is ≈ 30×, so a 10-RHS
workload must clear a 5× end-to-end speedup.

This bench also guards the observability budget: the span/metric
instrumentation threaded through the engine must cost < 2 % of a solve
when disabled (the production default).  Both the timings and the
measured overhead land in ``BENCH_engine_cache.json``; one profiled
execution is exported as ``engine_cache_trace.jsonl`` (the CI artifact).
"""

import os
import time

import numpy as np

import repro.engine as engine
import repro.obs as obs
from repro.bench import format_table, write_json_result, write_result
from repro.bench.runner import full_scale
from repro.engine import FactorizationCache
from repro.toeplitz import kms_toeplitz


def _wall(fn, repeats=3):
    best = np.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _solve_many(pl, rhs, cache):
    for b in rhs:
        engine.execute(pl, b, cache=cache)


def run_cache_bench(n, ms, nrhs):
    t = kms_toeplitz(n, 0.5)
    rng = np.random.default_rng(0)
    rhs = [rng.standard_normal(n) for _ in range(nrhs)]
    pl = engine.plan(t, assume="spd", block_size=ms)

    off = FactorizationCache(max_entries=1)
    t_off = _wall(lambda: _solve_many(pl.with_(cache="off"), rhs,
                                      None))
    t_on = _wall(lambda: (off.clear(), off.reset_stats(),
                          _solve_many(pl, rhs, off)))
    return t_off, t_on, off.stats()


def measure_obs(pl, rhs, nrhs):
    """Observability cost: enabled wall time and disabled-path estimate.

    The enabled cost is a direct re-timing of the cached-solve loop with
    tracing on.  The *disabled* instrumentation cost cannot be measured
    against code that no longer exists, so it is bounded from the two
    measurable factors: the per-call cost of a disabled ``obs.span``
    (the only thing the hot path touches) times the number of span
    sites one execution passes through.
    """
    was_enabled = obs.enabled()
    obs.disable()
    cache = FactorizationCache(max_entries=1)
    t_disabled = _wall(lambda: (cache.clear(), cache.reset_stats(),
                                _solve_many(pl, rhs, cache)))

    # Disabled fast path: per-call cost of span() + the enabled() checks.
    calls = 100_000
    t0 = time.perf_counter()
    for _ in range(calls):
        with obs.span("overhead-probe"):
            pass
    per_span = (time.perf_counter() - t0) / calls

    # Disabled health hooks: each returns after one enabled() check.
    from repro.obs import health
    t0 = time.perf_counter()
    for _ in range(calls):
        health.record_rotation_margin(1.0, 1e-14)
    per_guard = (time.perf_counter() - t0) / calls

    obs.enable()
    try:
        cache.clear()
        cache.reset_stats()
        t_enabled = _wall(lambda: (cache.clear(), cache.reset_stats(),
                                   _solve_many(pl, rhs, cache)))
        profiled = engine.execute(pl, rhs[0], cache=cache)
        spans_per_execute = sum(1 for _ in profiled.profile.root.walk())
        snap = obs.default_registry().snapshot()
        health_samples = sum(1 for k in snap
                             if k.startswith("repro_health_"))
    finally:
        if not was_enabled:
            obs.disable()

    # The workload factors once (every later solve hits the cache), and
    # that factorization runs one margin guard per eliminated column
    # (~n) plus a handful of coarser hooks.  Fold their disabled cost
    # into the same budget the span sites answer to.
    guards_per_factor = pl.order + 4
    disabled_overhead = (spans_per_execute * per_span * nrhs
                         + guards_per_factor * per_guard) / t_disabled
    return {
        "seconds_obs_disabled": t_disabled,
        "seconds_obs_enabled": t_enabled,
        "enabled_overhead_pct": 100.0 * (t_enabled - t_disabled)
        / t_disabled,
        "disabled_span_cost_seconds": per_span,
        "disabled_health_guard_seconds": per_guard,
        "spans_per_execute": spans_per_execute,
        "health_guards_per_factor": guards_per_factor,
        "health_samples_enabled": health_samples,
        "disabled_overhead_pct": 100.0 * disabled_overhead,
    }, profiled.profile


def test_engine_cache_throughput(benchmark):
    n = 1536 if full_scale() else 768
    ms, nrhs = 16, 10
    t_off, t_on, stats = benchmark.pedantic(
        run_cache_bench, args=(n, ms, nrhs), rounds=1, iterations=1)
    speedup = t_off / t_on
    rows = [[n, ms, nrhs, t_off, t_on, f"{speedup:.1f}x",
             stats.hits, stats.misses]]
    text = format_table(
        ["n", "m_s", "nrhs", "cache_off_s", "cache_on_s", "speedup",
         "hits", "misses"],
        rows,
        title=(f"Repeated-RHS solve throughput ({nrhs} solves against "
               "one matrix): factorization cache on vs off"))
    write_result("engine_cache", text)

    # --- observability budget + trace artifact -----------------------
    t = kms_toeplitz(n, 0.5)
    rng = np.random.default_rng(0)
    rhs = [rng.standard_normal(n) for _ in range(nrhs)]
    pl = engine.plan(t, assume="spd", block_size=ms)
    overhead, profile = measure_obs(pl, rhs, nrhs)

    trace_path = os.path.join(
        os.environ.get("REPRO_RESULTS_DIR",
                       os.path.join(os.path.dirname(__file__), "results")),
        "engine_cache_trace.jsonl")
    records = profile.to_records()
    obs.write_jsonl(records, trace_path)
    chrome_path = trace_path.replace(".jsonl", "_chrome.json")
    obs.write_chrome_trace(records, chrome_path)

    write_json_result("engine_cache", {
        "workload": {"n": n, "m_s": ms, "nrhs": nrhs,
                     "matrix": "kms(0.5)", "full_scale": full_scale()},
        "timings": {"cache_off_seconds": t_off,
                    "cache_on_seconds": t_on,
                    "speedup": speedup},
        "cache": {"hits": stats.hits, "misses": stats.misses,
                  "evictions": stats.evictions,
                  "bytes": stats.current_bytes},
        "observability": overhead,
        "model_flops_factorization":
            profile.root.children[0].attributes.get("model_flops"),
        "trace_jsonl": trace_path,
        "trace_chrome": chrome_path,
    })

    # the last timed pass factored once and hit on every later solve
    assert stats.misses == 1
    assert stats.hits == nrhs - 1
    # factor-once must dominate: ≥5× end-to-end on 10 RHS
    assert speedup >= 5.0, (t_off, t_on)
    # the disabled instrumentation path (spans + health-hook guards)
    # must stay below 2% of a solve
    assert overhead["disabled_overhead_pct"] < 2.0, overhead
    # and the hooks must actually report once enabled
    assert overhead["health_samples_enabled"] > 0, overhead
