"""End-to-end benchmark: every workload, each in a fresh child process.

    PYTHONPATH=src python benchmarks/e2e/run.py --seed 0 \
        [--workload NAME ...] [--trace] [--seconds S] [--out FILE]

Prints every metric as ``workload metric value unit``, then, as the last
line, one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
An untraced run prints the bounded end-to-end metrics and the reported
ones, and puts the bounded ones in the JSON line; ``--trace`` (or
``--trace 1``) is a separate run that reports the per-layer metrics and
writes each workload's spans as JSONL (next to ``--out``, else under
``.e2e_out/``).  With one workload the metric names are bare; with
several they are prefixed ``<workload>/``.  Exits non-zero when any
answer or check fails, and without a result line when a workload cannot
run at all.  ``--seconds`` sets the measured length of each workload run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time

from spec import (
    END_TO_END,
    PER_LAYER,
    REPORTED,
    RUN_SECONDS,
    UNITS,
    WORKLOADS,
)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
#: Seconds one workload child may take before it is killed.
CHILD_TIMEOUT = 170


def child_env(src: str, work: str) -> dict:
    env = dict(os.environ)
    # The service's two workers plus threaded BLAS oversubscribe two
    # cores; pinned BLAS makes the serve latencies repeat.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                "MKL_NUM_THREADS"):
        env[var] = "1"
    for var in ("REPRO_OBS", "REPRO_MP_DISABLE", "REPRO_MP_CRASH"):
        env.pop(var, None)
    env["REPRO_CACHE_DIR"] = os.path.join(work, "repro-cache")
    env["TMPDIR"] = work
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep)
                 if p])
    return env


def run_workload(name: str, args, src: str, scratch: str,
                 trace_out: str) -> dict | None:
    work = tempfile.mkdtemp(prefix=f"{name}-", dir=scratch)
    cfg = {"workload": name, "seed": args.seed, "seconds": args.seconds,
           "trace": args.trace, "work": work,
           "result": os.path.join(work, "result.json"),
           "trace_out": trace_out}
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "workloads.py"),
             json.dumps(cfg)],
            env=child_env(src, work), cwd=ROOT, timeout=CHILD_TIMEOUT,
            stdout=subprocess.DEVNULL)
    except subprocess.TimeoutExpired:
        print(f"{name}: timed out after {CHILD_TIMEOUT} s", file=sys.stderr)
        return None
    if proc.returncode != 0 or not os.path.exists(cfg["result"]):
        print(f"{name}: exited with code {proc.returncode}",
              file=sys.stderr)
        return None
    with open(cfg["result"], encoding="utf-8") as fh:
        return json.load(fh)


def parse_args(argv=None):
    ap = argparse.ArgumentParser(
        description="End-to-end benchmark of the block Toeplitz solver.")
    ap.add_argument("--workload", action="append", choices=list(WORKLOADS),
                    help="workload to run (repeatable; default: all)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=RUN_SECONDS,
                    help="measured seconds per workload run")
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                    choices=(0, 1),
                    help="traced run: per-layer metrics and span files")
    ap.add_argument("--out", metavar="FILE",
                    help="write every result, with details, as JSON")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print(f"no solver sources under {src}", file=sys.stderr)
        return 2
    names = args.workload or list(WORKLOADS)
    trace_dir = (os.path.dirname(os.path.abspath(args.out)) if args.out
                 else os.path.join(ROOT, ".e2e_out"))
    stem = (os.path.splitext(os.path.basename(args.out))[0] if args.out
            else "e2e")
    if args.trace:
        os.makedirs(trace_dir, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=".e2e_work-", dir=ROOT)
    results = {}
    try:
        for name in names:
            t0 = time.perf_counter()
            trace_out = os.path.join(trace_dir, f"{stem}.{name}.trace.jsonl")
            res = run_workload(name, args, src, scratch, trace_out)
            if res is None:
                return 1
            res["wall_s"] = time.perf_counter() - t0
            if args.trace:
                res["trace_file"] = trace_out
            results[name] = res
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    wanted = [m[0] for m in (PER_LAYER if args.trace else END_TO_END)]
    metrics = {}
    for name, res in results.items():
        for metric in wanted:
            value = res["metrics"][metric]
            print(f"{name} {metric} {value:.6g} {UNITS[metric]}")
            key = metric if len(results) == 1 else f"{name}/{metric}"
            metrics[key] = {"value": value, "unit": UNITS[metric]}
        if not args.trace:
            for metric, unit, _ in REPORTED:
                print(f"{name} {metric} {res['reported'][metric]:.6g} {unit} "
                      "(reported, no bound)")
        d = res["details"]
        print(f"{name} error_rate {d['error_rate']:.6g} fraction "
              f"(attempted {res['attempted']}, failed {res['failed']}"
              f"{', ' + str(res['failures']) if res['failures'] else ''})")
        print(f"{name} check.eta_max {d['check.eta_max']:.3g} ratio "
              f"({d['check.answers']} answers checked)")
        print(f"{name} samples {d['samples']} count "
              f"(p{d['tail_percentile']} has {d['tail_samples']} beyond; "
              f"input generation {d['input_gen_s']:.2f} s; "
              f"run {res['wall_s']:.1f} s)")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"seed": args.seed, "seconds": args.seconds,
                       "trace": args.trace,
                       "workloads": results}, fh, indent=1)
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    correct = all(r["correct"] for r in results.values())
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
