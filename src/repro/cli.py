"""Command-line interface: ``python -m repro <command> …``.

Commands
--------
``info <matrix>``
    Structure report: order, block size, displacement rank, definiteness,
    condition estimate.
``factor <matrix> [-o out.npz]``
    Factor (SPD Cholesky or indefinite RᵀDR with perturbation) and
    report diagnostics; optionally save the factor.  With
    ``--nproc NP`` the factorization runs distributed —
    ``--backend multiprocess`` on real worker processes,
    ``--backend simulated`` (default) on the T3D model; ``--dist-b``
    picks the Version 1/2/3 data distribution, ``--schedule lookahead``
    the Section-7 pipelined schedule.
``solve <matrix> [<rhs>] [-o x.npy]``
    Solve ``T x = b`` with the automatic SPD → indefinite+refinement
    pipeline (or ``--method gko`` / ``levinson``); accepts the same
    ``--nproc``/``--backend``/``--dist-b``/``--schedule`` distribution
    flags — distributed plans keep the triangular solves distributed
    too (the report names the solve backend).  The RHS
    may be a 2-D ``n × k`` panel (batched level-3 solve path), or be
    synthesized with ``--nrhs k``; ``--profile`` then reports the
    per-panel solve throughput.  ``--precision fp32`` (also on
    ``factor``) runs the factorization reduced and recovers fp64
    accuracy through refinement.
``simulate <matrix> --nproc NP [--b B]``
    Run the distributed factorization on the simulated T3D and print the
    time/phase breakdown.
``tune <matrix> [--nproc NP]``
    Recommend a configuration (block size, representation, data
    distribution) for this problem on the modeled machine.
``trace report <trace.jsonl> […]``
    Analyze a recorded JSONL trace (from ``--trace-out``): critical
    path, per-rank utilization/imbalance, achieved-vs-modeled flop
    efficiency.  Several per-rank files merge time-ordered.
``trace timeline <trace.jsonl> […] -o chrome.json``
    Export to Chrome trace-event JSON for ``chrome://tracing`` /
    Perfetto.
``bench ingest / bench diff``
    Maintain ``BENCH_history.jsonl`` from the ``BENCH_*.json``
    benchmark artifacts and diff the current results against the
    committed baseline (nonzero exit on regression).
``serve <matrix> [--port P]``
    Run the matrix as a solver service: a TCP front end
    (newline-delimited JSON) over the micro-batching dispatcher that
    coalesces concurrent requests sharing a factorization into one
    panel solve (``--max-wait-ms`` latency budget, ``--max-batch-k``
    panel cap, ``--max-queue-depth`` admission bound).  ``--selftest K``
    starts the server on an ephemeral port, drives K concurrent client
    requests through it, prints the coalescing stats, and exits.
``bench-info``
    List the paper figures/tables and the benchmark that regenerates
    each.

Matrix files: ``.npy``/``.npz``/``.txt``.  A 1-D array is the first row
of a scalar symmetric Toeplitz matrix; a 2-D array is a dense symmetric
block Toeplitz matrix (pass ``--block-size``).
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from repro import __version__
from repro.errors import ReproError

__all__ = ["main", "build_parser"]


def _load_array(path: str) -> np.ndarray:
    if path.endswith(".npz"):
        with np.load(path) as data:
            key = list(data.keys())[0]
            return np.asarray(data[key], dtype=np.float64)
    if path.endswith(".npy"):
        return np.asarray(np.load(path), dtype=np.float64)
    return np.loadtxt(path, dtype=np.float64)


def _load_matrix(path: str, block_size: int | None):
    from repro.toeplitz import SymmetricBlockToeplitz, \
        symmetric_from_dense
    arr = _load_array(path)
    if arr.ndim == 1:
        t = SymmetricBlockToeplitz.from_first_row(arr)
        if block_size and block_size > 1:
            t = t.regroup(block_size)
        return t
    return symmetric_from_dense(arr, block_size or 1)


def _cmd_info(args) -> int:
    from repro.core.condest import condest
    from repro.core.displacement_rank import displacement_rank
    t = _load_matrix(args.matrix, args.block_size)
    print(f"order:              {t.order}")
    print(f"block size:         {t.block_size}")
    print(f"block rows:         {t.num_blocks}")
    if t.order <= 2048:
        d = t.dense()
        eig = np.linalg.eigvalsh(d)
        kind = ("positive definite" if eig[0] > 0 else
                "negative definite" if eig[-1] < 0 else "indefinite")
        print(f"definiteness:       {kind} "
              f"(λmin={eig[0]:.3e}, λmax={eig[-1]:.3e})")
        print(f"displacement rank:  {displacement_rank(d)}")
    try:
        print(f"cond₁ estimate:     {condest(t):.3e}")
    except ReproError as exc:
        print(f"cond₁ estimate:     unavailable ({exc})")
    return 0


def _want_profile(args) -> bool:
    """Enable observability for this run when asked; returns whether."""
    if getattr(args, "profile", False) or getattr(args, "trace_out", None):
        import repro.obs as obs
        obs.enable()
        return True
    return False


def _emit_profile(args, profile, result=None) -> None:
    """Print the span tree / metrics / health and write the JSONL trace.

    ``result`` (an engine ``ExecutionResult``) lets the trace carry the
    always-on per-execution summary record alongside the span tree, so
    ``repro trace report`` can pair phase timings with flop totals.
    """
    if profile is None:
        return
    if args.profile:
        print()
        print(profile.render())
        from repro.obs import health_summary, render_health
        summary = health_summary(profile.metrics)
        if summary["observed"]:
            print()
            print(render_health(summary))
    if args.trace_out:
        from repro.obs import write_jsonl
        records = (result.to_trace_records() if result is not None
                   else profile.to_records())
        write_jsonl(records, args.trace_out)
        print(f"trace written to {args.trace_out}")


def _report_backend(fact, pl) -> None:
    """One line about which distributed backend actually ran."""
    backend = getattr(fact, "backend", None)
    if backend is None:
        return
    run = fact.run
    secs = getattr(run, "wall_seconds", None)
    clock = (f"{secs * 1e3:.3f} ms wall" if secs is not None
             else f"{run.time * 1e3:.3f} ms virtual")
    line = (f"distributed: backend={backend}, NP={fact.nproc}, "
            f"Version {fact.layout.version} "
            f"(b={pl.distribution_b}), {clock}")
    if getattr(pl, "schedule", "bulk") != "bulk":
        line += f", schedule={pl.schedule}"
    if fact.fell_back:
        line += f"\n  (multiprocess unavailable: {fact.fallback_reason})"
    solve_route = getattr(fact, "last_solve_backend", "")
    if solve_route:
        sline = f"distributed solve: {solve_route}"
        srun = getattr(fact, "last_solve_run", None)
        swall = getattr(srun, "wall_seconds", None)
        if swall is not None:
            sline += f", {swall * 1e3:.3f} ms wall"
        elif getattr(srun, "makespan", None) is not None:
            sline += f", {srun.makespan * 1e3:.3f} ms virtual"
        reason = getattr(fact, "last_solve_fallback_reason", "")
        if reason:
            sline += f"\n  (distributed solve unavailable: {reason})"
        line += "\n" + sline
    print(line)


def _cmd_factor(args) -> int:
    import repro.engine as engine
    _want_profile(args)
    t = _load_matrix(args.matrix, args.block_size)
    pl = engine.plan(t, representation=args.representation,
                     cache=args.cache, nproc=args.nproc,
                     distribution_b=args.dist_b, backend=args.backend,
                     schedule=args.schedule, precision=args.precision)
    if args.explain:
        print(pl.describe())
    fres = engine.factor(pl)
    fact = fres.factorization
    _report_backend(fact, pl)
    if args.precision != "fp64":
        ran = getattr(fact, "precision", "fp64")
        fd = np.dtype(getattr(fact, "dtype", np.float64)).name
        line = (f"precision: requested {args.precision}, ran {ran} "
                f"(factor dtype {fd})")
        if ran != args.precision:
            line += " — condest admission fell back to fp64"
        print(line)
    if fres.algorithm == "spd-schur":
        d = np.ones(t.order, dtype=np.int8)
        print(f"SPD Cholesky factorization T = RᵀR "
              f"(representation {args.representation})")
        print(f"log det T = {fact.logdet():.6e}")
        r = fact.r
    else:
        r, d = fact.r, fact.d
        print(f"indefinite factorization T ≈ RᵀDR: "
              f"inertia {fact.inertia}, "
              f"{len(fact.perturbations)} perturbation(s), "
              f"{len(fact.interchanges)} interchange(s)")
        if fact.perturbed:
            print("note: factorization is of a nearby matrix; solve "
                  "with iterative refinement (`repro solve`)")
    resid = np.max(np.abs(r.T @ (d.astype(float)[:, None] * r)
                          - t.dense())) if t.order <= 2048 else None
    if resid is not None:
        print(f"max |RᵀDR − T| = {resid:.3e}")
    if args.output:
        np.savez(args.output, r=r, d=d)
        print(f"factor written to {args.output}")
    _emit_profile(args, fres.profile)
    return 0


_METHOD_MESSAGES = {
    "spd-schur": "solved with SPD block Schur factorization T = RᵀR",
    "indefinite+refine": "solved with perturbed RᵀDR + refinement",
    "gko": "solved with GKO Cauchy-like LU (partial pivoting)",
    "gs": "solved by applying the Gohberg–Semencul form of T⁻¹",
    "levinson": "solved with block Levinson recursion",
    "pcg": "solved with preconditioned conjugate gradients",
    "dense-chol": "solved with dense LAPACK Cholesky",
}


def _solve_rhs(args, order: int) -> np.ndarray:
    """The right-hand side: a file (vector or ``n × k`` panel) or a
    synthetic ``--nrhs k`` panel."""
    from repro.errors import InvalidOptionError
    if args.rhs is not None and args.nrhs is not None:
        raise InvalidOptionError(
            "pass either a rhs file or --nrhs, not both")
    if args.rhs is not None:
        return _load_array(args.rhs)
    if args.nrhs is not None:
        if args.nrhs < 1:
            raise InvalidOptionError(
                f"--nrhs must be positive, got {args.nrhs}")
        from repro.utils.rng import default_rng
        return default_rng(0).standard_normal((order, args.nrhs))
    raise InvalidOptionError(
        "solve needs a right-hand side: a rhs file, or --nrhs K for a "
        "synthetic K-column panel")


def _cmd_solve(args) -> int:
    import repro.engine as engine
    _want_profile(args)
    t = _load_matrix(args.matrix, args.block_size)
    b = _solve_rhs(args, t.order)
    pl = engine.plan(
        t, algorithm=None if args.method == "auto" else args.method,
        cache=args.cache, nproc=args.nproc,
        distribution_b=args.dist_b, backend=args.backend,
        schedule=args.schedule, precision=args.precision)
    if args.explain:
        print(pl.describe())
    res = engine.execute(pl, b)
    if res.algorithm == "spd-schur":
        _report_backend(res.detail, pl)
    x = res.x
    msg = _METHOD_MESSAGES.get(res.algorithm,
                               f"solved with {res.algorithm}")
    if res.algorithm == "indefinite+refine":
        msg += (f": {res.detail.iterations} correction step(s), "
                f"converged={res.detail.converged}")
    elif res.cache_hit:
        msg += " (cached factorization)"
    print(msg)
    from repro.toeplitz.matvec import BlockCirculantEmbedding
    r = BlockCirculantEmbedding(t)(x) - b
    if r.ndim == 1:
        print(f"‖T x − b‖₂ = {float(np.linalg.norm(r)):.3e}")
    else:
        worst = float(np.max(np.linalg.norm(r, axis=0)))
        print(f"panel of {r.shape[1]} right-hand sides; "
              f"worst column ‖T x − b‖₂ = {worst:.3e}")
    if args.profile and res.record is not None:
        rec = res.record
        print(f"panel solve throughput: {rec.nrhs} RHS in "
              f"{rec.wall_seconds * 1e3:.3f} ms → "
              f"{rec.rhs_per_second:.1f} RHS/s"
              + (" (cached factorization)" if rec.cache_hit else ""))
        if rec.precision != "fp64" or rec.refine_sweeps is not None:
            sweeps = ("direct triangular solve"
                      if rec.refine_sweeps is None else
                      f"{rec.refine_sweeps} refinement sweep(s)")
            print(f"precision: {rec.precision} "
                  f"(factor {rec.factor_dtype}), {sweeps}")
    if args.output:
        np.save(args.output, x)
        print(f"solution written to {args.output}")
    else:
        np.set_printoptions(precision=6, suppress=False, threshold=20)
        print(f"x = {x}")
    _emit_profile(args, res.profile, result=res)
    return 0


def _cmd_simulate(args) -> int:
    from repro.parallel import simulate_factorization
    t = _load_matrix(args.matrix, args.block_size)
    run = simulate_factorization(t, nproc=args.nproc, b=args.b,
                                 collect=False,
                                 representation=args.representation,
                                 trace=bool(args.trace_out))
    print(f"simulated T3D: NP={args.nproc}, b={args.b} "
          f"(v{run.layout.version}), m={t.block_size}")
    print(f"time to factor: {run.time * 1e3:.3f} ms (virtual)")
    print("slowest-PE phase breakdown:")
    for k, v in sorted(run.breakdown().items(), key=lambda kv: -kv[1]):
        print(f"  {k:<12} {v * 1e3:9.3f} ms")
    if args.trace_out:
        from repro.obs import write_jsonl
        write_jsonl(run.report.trace.to_records(), args.trace_out)
        print(f"trace written to {args.trace_out}")
    return 0


def _cmd_tune(args) -> int:
    from repro.tuning import tune
    t = _load_matrix(args.matrix, args.block_size)
    res = tune(t.order, t.block_size, nproc=args.nproc)
    print(f"problem: n={t.order}, m={t.block_size}, NP={args.nproc}")
    print("recommendation:", res.describe())
    print(res.to_plan(t).describe())
    if res.distribution is not None:
        print("top distribution candidates:")
        seen = set()
        for rep, c in res.candidates:
            key = (rep, c.b)
            if key in seen:
                continue
            seen.add(key)
            print(f"  rep={rep:<4} b={c.b:<6} version {c.version}: "
                  f"{c.seconds * 1e3:9.3f} ms")
            if len(seen) >= 8:
                break
    return 0


def _cmd_serve(args) -> int:
    from repro.serve import SolverService, start_tcp_server
    _want_profile(args)
    t = _load_matrix(args.matrix, args.block_size)
    service = SolverService(max_wait_ms=args.max_wait_ms,
                            max_batch_k=args.max_batch_k,
                            max_queue_depth=args.max_queue_depth,
                            workers=args.workers,
                            adaptive_wait=args.adaptive_wait)
    pl = service.register(args.op, t,
                          representation=args.representation,
                          precision=args.precision,
                          cache=args.cache,
                          warm=not args.no_warm)
    if args.explain:
        print(pl.describe())
    port = 0 if args.selftest else args.port
    handle = start_tcp_server(service, host=args.host, port=port)
    print(f"serving operator {args.op!r} (n={t.order}, "
          f"m={t.block_size}) on {handle.host}:{handle.port} — "
          f"max_wait_ms={args.max_wait_ms:g}, "
          f"max_batch_k={args.max_batch_k}, "
          f"max_queue_depth={args.max_queue_depth}")
    try:
        if args.selftest:
            return _serve_selftest(args, handle, service)
        import time as _time
        while True:  # pragma: no cover - interactive loop
            _time.sleep(3600)
    except KeyboardInterrupt:  # pragma: no cover - interactive
        print("shutting down (draining in-flight batches)")
        return 0
    finally:
        handle.close()
        service.close(drain=True)


def _serve_selftest(args, handle, service) -> int:
    """Drive K concurrent requests through the TCP path, then report."""
    import concurrent.futures

    from repro.serve import TCPClient
    from repro.utils.rng import default_rng
    k = args.selftest
    order = service.plan_for(args.op).order
    panel = default_rng(0).standard_normal((order, k))

    def one(j: int):
        with TCPClient(handle.host, handle.port) as client:
            return client.solve(args.op, panel[:, j])

    with concurrent.futures.ThreadPoolExecutor(max_workers=k) as pool:
        responses = list(pool.map(one, range(k)))
    stats = service.stats()
    widths = sorted({r.record.batch_k for r in responses})
    print(f"selftest: {k} concurrent requests → {stats.batches} "
          f"batch(es), mean panel width {stats.mean_batch_k:.1f} "
          f"(widths seen: {widths})")
    print(f"latency p50 {stats.latency_p50_seconds * 1e3:.3f} ms, "
          f"p99 {stats.latency_p99_seconds * 1e3:.3f} ms")
    ok = (stats.completed == k and stats.failed == 0)
    print("selftest " + ("passed" if ok else
                         f"FAILED: {stats.failed} request(s) failed"))
    return 0 if ok else 1


def _fmt_bytes(n: float) -> str:
    for unit in ("B", "KiB", "MiB", "GiB"):
        if abs(n) < 1024 or unit == "GiB":
            return (f"{n:.0f} {unit}" if unit == "B"
                    else f"{n:.1f} {unit}")
        n /= 1024
    return f"{n:.1f} GiB"  # pragma: no cover - unreachable


def _cache_store(args):
    from repro.engine.cache_store import CacheStore, default_store
    if args.dir:
        return CacheStore(args.dir)
    return default_store()


def _cmd_cache_ls(args) -> int:
    store = _cache_store(args)
    entries = store.entries()
    if not entries:
        print(f"persistent cache at {store.root}: empty")
        return 0
    import time as _time
    now = _time.time()
    print(f"persistent cache at {store.root}:")
    for e in entries:
        age = max(0.0, now - e.created)
        print(f"  {e.digest[:12]}  {e.kind:<17} "
              f"{_fmt_bytes(e.file_bytes):>10}  "
              f"(payload {_fmt_bytes(e.payload_bytes)}, "
              f"age {age / 3600:.1f} h)")
    total = sum(e.file_bytes for e in entries)
    print(f"{len(entries)} entr{'y' if len(entries) == 1 else 'ies'}, "
          f"{_fmt_bytes(total)} total")
    return 0


def _cmd_cache_info(args) -> int:
    from repro.errors import InvalidOptionError
    store = _cache_store(args)
    matches = [e for e in store.entries()
               if e.digest.startswith(args.digest)]
    if not matches:
        raise InvalidOptionError(
            f"no cache entry matches digest prefix {args.digest!r} "
            f"under {store.root}")
    for e in matches:
        print(f"entry {e.digest}")
        print(f"  path        {e.path}")
        print(f"  kind        {e.kind}")
        print(f"  file size   {_fmt_bytes(e.file_bytes)}")
        print(f"  payload     {_fmt_bytes(e.payload_bytes)}")
        print(f"  stamp       {e.stamp}")
        if e.describe:
            for k, v in sorted(e.describe.items()):
                print(f"  {k:<11} {v}")
        if e.key:
            print(f"  key         {e.key}")
    return 0


def _cmd_cache_prune(args) -> int:
    from repro.errors import InvalidOptionError
    if args.max_bytes is None and args.max_age is None:
        raise InvalidOptionError(
            "prune needs a budget: --max-bytes and/or --max-age")
    store = _cache_store(args)
    removed = store.prune(max_bytes=args.max_bytes,
                          max_age_seconds=args.max_age)
    stats = store.stats()
    print(f"pruned {removed} entr{'y' if removed == 1 else 'ies'}; "
          f"{stats.entries} left ({_fmt_bytes(stats.disk_bytes)})")
    return 0


def _cmd_cache_clear(args) -> int:
    store = _cache_store(args)
    removed = store.clear()
    print(f"cleared {removed} entr{'y' if removed == 1 else 'ies'} "
          f"from {store.root}")
    return 0


def _cmd_cache_warm(args) -> int:
    import repro.engine as engine
    store = _cache_store(args)
    t = _load_matrix(args.matrix, args.block_size)
    pl = engine.plan(
        t, algorithm=None if args.method == "auto" else args.method,
        representation=args.representation, precision=args.precision,
        cache="persistent")
    fres = engine.factor(pl, store=store)
    path = store.path_for(pl.cache_key())
    if fres.cache_hit:
        print(f"already warm: {pl.algorithm} factorization for "
              f"fingerprint {pl.fingerprint[:12]}… is cached")
    else:
        print(f"factored with {fres.algorithm} and published to "
              f"{path}")
    stats = store.stats()
    print(f"store now holds {stats.entries} entr"
          f"{'y' if stats.entries == 1 else 'ies'} "
          f"({_fmt_bytes(stats.disk_bytes)})")
    return 0


def _cmd_bench_info(_args) -> int:
    rows = [
        ("Figure 6 / Exp 1", "bench_fig6_exp1.py",
         "4096 point Toeplitz, NP=16, time vs b"),
        ("Figure 7 / Exp 2", "bench_fig7_exp2.py",
         "m=8, NP=64, all three distribution schemes"),
        ("Figure 8 / Exp 3", "bench_fig8_exp3.py",
         "m=32, NP=64, Version-3 spreads"),
        ("Figure 9", "bench_fig9_blocksize.py",
         "m=2 vs m=4 crossover over NP"),
        ("Figure 10", "bench_fig10_ymp.py",
         "performance vs m_s (real + Y-MP model)"),
        ("§8.2 example", "bench_section8_refinement.py",
         "eq.-50 matrix, perturbation + refinement"),
        ("eqs. 25–32", "bench_flop_models.py",
         "blocking/application flop tables"),
        ("§6.3 volume", "bench_comm_volume.py",
         "representation message volumes"),
        ("§8.1 comparator", "bench_refinement_vs_pcg.py",
         "refinement vs preconditioned CG"),
        ("eq. 45 ablation", "bench_delta_ablation.py",
         "perturbation size sweep"),
        ("ablations", "bench_representations.py / bench_real_blocksize.py",
         "representation / panel / m_s wall-clock"),
        ("complexity", "bench_solver_comparison.py",
         "structured O(n²) vs dense O(n³)"),
    ]
    width = max(len(r[0]) for r in rows)
    w2 = max(len(r[1]) for r in rows)
    for name, bench, desc in rows:
        print(f"{name:<{width}}  {bench:<{w2}}  {desc}")
    print("\nrun: pytest benchmarks/ --benchmark-only "
          "[REPRO_BENCH_FULL=1 for paper sizes]")
    return 0


def _trace_input(paths) -> list[dict]:
    """Load one JSONL trace, or merge several per-rank files."""
    from repro.obs import merge_rank_traces, read_jsonl
    if len(paths) == 1:
        return read_jsonl(paths[0])
    return merge_rank_traces(paths)


def _cmd_trace_report(args) -> int:
    import json as _json

    from repro.obs import analyze_records
    report = analyze_records(_trace_input(args.trace))
    if args.json:
        print(_json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(report.render())
    return 0


def _cmd_trace_timeline(args) -> int:
    from repro.obs import write_chrome_trace
    write_chrome_trace(_trace_input(args.trace), args.output)
    print(f"chrome trace written to {args.output} "
          f"(open in chrome://tracing or https://ui.perfetto.dev)")
    return 0


def _cmd_bench_ingest(args) -> int:
    from repro.bench import history
    results = history.load_results(args.results_dir)
    if not results:
        print("no BENCH_*.json results found", file=sys.stderr)
        return 1
    path = args.history or history.history_path(args.results_dir)
    count = history.append_history(results, args.label, path)
    print(f"ingested {len(results)} benchmark(s), {count} metric(s) "
          f"into {path} as run {args.label!r}")
    return 0


def _cmd_bench_diff(args) -> int:
    from repro.bench import history
    results = history.load_results(args.results_dir)
    path = args.history or history.history_path(args.results_dir)
    baseline = history.load_baseline(path)
    threshold = (args.threshold if args.threshold is not None
                 else history.DEFAULT_THRESHOLD)
    entries = history.diff_results(results, baseline,
                                   threshold=threshold)
    print(history.render_diff(entries, show_all=args.show_all))
    return 1 if any(e.regression for e in entries) else 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse command tree."""
    from repro.core.precision import PRECISIONS
    from repro.engine.plan import BACKENDS, SCHEDULES

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Block Schur solvers for (block) Toeplitz systems "
                    "(ICPP'94 reproduction)")
    parser.add_argument("--version", action="version",
                        version=f"repro {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_matrix_args(p):
        p.add_argument("matrix", help="matrix file (.npy/.npz/.txt)")
        p.add_argument("--block-size", type=int, default=None,
                       help="block size m (required for dense input; "
                            "optional regrouping for first-row input)")

    p = sub.add_parser("info", help="structure report")
    add_matrix_args(p)
    p.set_defaults(func=_cmd_info)

    def add_engine_args(p):
        p.add_argument("--cache", default="memory",
                       choices=["memory", "persistent", "off"],
                       help="cache tiering: in-process LRU only (the "
                            "default), LRU backed by the on-disk store "
                            "(REPRO_CACHE_DIR or ~/.cache/repro), or "
                            "none")
        p.add_argument("--explain", action="store_true",
                       help="print the solver plan before running it")
        p.add_argument("--profile", action="store_true",
                       help="enable observability and print the span "
                            "tree + metrics table after the run")
        p.add_argument("--trace-out", metavar="FILE", default=None,
                       help="write the execution trace as JSON lines "
                            "(implies observability)")
        p.add_argument("--nproc", type=int, default=None,
                       help="run the factorization distributed over NP "
                            "PEs")
        p.add_argument("--backend", default="simulated",
                       choices=BACKENDS,
                       help="distributed backend (with --nproc > 1): "
                            "the discrete-event T3D model or real "
                            "worker processes; multiprocess falls back "
                            "to simulated when unavailable")
        p.add_argument("--dist-b", type=float, default=None,
                       dest="dist_b", metavar="B",
                       help="distribution parameter b (b≥1: Versions "
                            "1/2; b<1 ⇒ Version 3)")
        p.add_argument("--schedule", default="bulk",
                       choices=SCHEDULES,
                       help="distributed per-step schedule: the "
                            "barrier-synchronized bulk loop, or the "
                            "Section-7 lookahead pipeline (Version 1, "
                            "NP ≥ 2) that overlaps the serial "
                            "generator build with application work")
        p.add_argument("--precision", default="fp64",
                       choices=PRECISIONS,
                       help="factorization working precision; fp32 "
                            "factors reduced and recovers fp64 via "
                            "refinement (distributed plans factor at "
                            "fp64)")

    p = sub.add_parser("factor", help="factor the matrix")
    add_matrix_args(p)
    p.add_argument("--representation", default="vy2",
                   choices=["vy1", "vy2", "yty", "unblocked", "dense"])
    add_engine_args(p)
    p.add_argument("-o", "--output", help="write factor to .npz")
    p.set_defaults(func=_cmd_factor)

    p = sub.add_parser("solve", help="solve T x = b")
    add_matrix_args(p)
    p.add_argument("rhs", nargs="?", default=None,
                   help="right-hand side file — 1-D (single solve) or "
                        "2-D n×k (batched panel solve); omit with "
                        "--nrhs for a synthetic panel")
    p.add_argument("--nrhs", type=int, default=None, metavar="K",
                   help="solve against a synthetic K-column Gaussian "
                        "panel (seeded; alternative to a rhs file)")
    p.add_argument("--method", default="auto",
                   choices=["auto", "spd-schur", "indefinite+refine",
                            "gko", "gs", "levinson", "pcg",
                            "dense-chol"])
    add_engine_args(p)
    p.add_argument("-o", "--output", help="write solution to .npy")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("simulate",
                       help="factor on the simulated T3D")
    add_matrix_args(p)
    p.add_argument("--nproc", type=int, required=True)
    p.add_argument("--b", type=float, default=1.0,
                   help="distribution parameter (b<1 ⇒ Version 3)")
    p.add_argument("--representation", default="vy2",
                   choices=["vy1", "vy2", "yty"])
    p.add_argument("--trace-out", metavar="FILE", default=None,
                   help="write the simulated per-PE event trace as "
                        "JSON lines (same schema as solve --trace-out)")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("tune", help="recommend a configuration")
    add_matrix_args(p)
    p.add_argument("--nproc", type=int, default=1)
    p.set_defaults(func=_cmd_tune)

    p = sub.add_parser("trace",
                       help="analyze / export recorded JSONL traces")
    tsub = p.add_subparsers(dest="trace_command", required=True)
    pt = tsub.add_parser(
        "report",
        help="critical path, per-rank utilization/imbalance, and "
             "achieved-vs-modeled flop efficiency")
    pt.add_argument("trace", nargs="+",
                    help="JSONL trace file(s) from --trace-out; "
                         "several files merge time-ordered")
    pt.add_argument("--json", action="store_true",
                    help="emit the report as JSON instead of text")
    pt.set_defaults(func=_cmd_trace_report)
    pt = tsub.add_parser(
        "timeline",
        help="export to Chrome trace-event JSON "
             "(chrome://tracing / Perfetto)")
    pt.add_argument("trace", nargs="+",
                    help="JSONL trace file(s); several files merge "
                         "time-ordered")
    pt.add_argument("-o", "--output", required=True,
                    help="output .json path for the Chrome trace")
    pt.set_defaults(func=_cmd_trace_timeline)

    p = sub.add_parser("bench",
                       help="benchmark history and regression diffing")
    bsub = p.add_subparsers(dest="bench_command", required=True)
    pb = bsub.add_parser(
        "ingest",
        help="append current BENCH_*.json results to the history "
             "baseline")
    pb.add_argument("--results-dir", default=None,
                    help="directory holding BENCH_*.json "
                         "(default benchmarks/results)")
    pb.add_argument("--history", default=None,
                    help="history JSONL path "
                         "(default <results-dir>/BENCH_history.jsonl)")
    pb.add_argument("--label", default="current",
                    help="run label recorded on every ingested metric")
    pb.set_defaults(func=_cmd_bench_ingest)
    pb = bsub.add_parser(
        "diff",
        help="diff current BENCH_*.json against the baseline; exits "
             "nonzero on regression")
    pb.add_argument("--results-dir", default=None)
    pb.add_argument("--history", default=None)
    pb.add_argument("--threshold", type=float, default=None,
                    help="relative regression threshold for gated "
                         "metrics (default 0.15)")
    pb.add_argument("--all", action="store_true", dest="show_all",
                    help="show every compared metric, not just "
                         "regressions")
    pb.set_defaults(func=_cmd_bench_diff)

    p = sub.add_parser(
        "cache",
        help="inspect and manage the persistent factorization store")
    csub = p.add_subparsers(dest="cache_command", required=True)

    def add_dir_arg(pc):
        pc.add_argument("--dir", default=None, metavar="DIR",
                        help="store root (default: REPRO_CACHE_DIR or "
                             "~/.cache/repro/factorizations)")

    pc = csub.add_parser("ls", help="list cached entries")
    add_dir_arg(pc)
    pc.set_defaults(func=_cmd_cache_ls)
    pc = csub.add_parser("info",
                         help="show one entry's metadata and key")
    pc.add_argument("digest", help="entry digest (prefix accepted)")
    add_dir_arg(pc)
    pc.set_defaults(func=_cmd_cache_info)
    pc = csub.add_parser(
        "prune",
        help="evict oldest entries past a size and/or age budget")
    pc.add_argument("--max-bytes", type=int, default=None, metavar="N",
                    help="keep total store size at or under N bytes")
    pc.add_argument("--max-age", type=float, default=None, metavar="S",
                    help="drop entries older than S seconds")
    add_dir_arg(pc)
    pc.set_defaults(func=_cmd_cache_prune)
    pc = csub.add_parser("clear",
                         help="remove every entry (quarantine too)")
    add_dir_arg(pc)
    pc.set_defaults(func=_cmd_cache_clear)
    pc = csub.add_parser(
        "warm",
        help="factor a matrix into the store so later runs start warm")
    add_matrix_args(pc)
    pc.add_argument("--representation", default="vy2",
                    choices=["vy1", "vy2", "yty", "unblocked", "dense"])
    pc.add_argument("--precision", default="fp64",
                    choices=PRECISIONS)
    pc.add_argument("--method", default="auto",
                    choices=["auto", "spd-schur", "indefinite+refine",
                             "gko", "gs", "levinson", "pcg",
                             "dense-chol"])
    add_dir_arg(pc)
    pc.set_defaults(func=_cmd_cache_warm)

    p = sub.add_parser(
        "serve",
        help="run the matrix as a coalescing solver service over TCP")
    add_matrix_args(p)
    p.add_argument("--op", default="default", metavar="NAME",
                   help="operator name requests address "
                        "(default: 'default')")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8571,
                   help="TCP port (0 picks a free one; default 8571)")
    p.add_argument("--max-wait-ms", type=float, default=2.0,
                   metavar="MS",
                   help="latency budget: longest a request waits for "
                        "batch-mates before its panel dispatches")
    p.add_argument("--adaptive-wait", action="store_true",
                   help="adapt the wait budget to traffic: decay toward "
                        "0 while the queue is empty, grow back toward "
                        "--max-wait-ms under sustained load")
    p.add_argument("--max-batch-k", type=int, default=32, metavar="K",
                   help="panel-width cap per coalesced batch")
    p.add_argument("--max-queue-depth", type=int, default=256,
                   metavar="N",
                   help="admission bound; submits past it fast-fail "
                        "with ServiceOverloadError")
    p.add_argument("--workers", type=int, default=2,
                   help="threads executing dispatched batches")
    p.add_argument("--representation", default="vy2",
                   choices=["vy1", "vy2", "yty", "unblocked", "dense"])
    p.add_argument("--precision", default="fp64",
                   choices=PRECISIONS)
    p.add_argument("--cache", default="memory",
                   choices=["memory", "persistent", "off"],
                   help="cache tiering for the served plan; "
                        "'persistent' warms from the on-disk store at "
                        "startup and publishes fresh factorizations "
                        "back for the next restart")
    p.add_argument("--no-warm", action="store_true",
                   help="skip prepaying the factorization at startup")
    p.add_argument("--explain", action="store_true",
                   help="print the solver plan before serving")
    p.add_argument("--profile", action="store_true",
                   help="enable observability (service metrics become "
                        "available via the 'metrics' command)")
    p.add_argument("--selftest", type=int, default=None, metavar="K",
                   help="start on an ephemeral port, drive K "
                        "concurrent TCP requests, print coalescing "
                        "stats, exit")
    p.set_defaults(func=_cmd_serve, trace_out=None)

    p = sub.add_parser("bench-info",
                       help="list paper artifacts and their benches")
    p.set_defaults(func=_cmd_bench_info)
    return parser


def main(argv=None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
