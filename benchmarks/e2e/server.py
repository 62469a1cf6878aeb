"""Solver server subprocess for the ``serve_tcp`` workload.

Serves the operators in an ``.npz`` (one first-block-row array per
operator name) through the public ``SolverService`` and
``start_tcp_server``, with the service's default knobs::

    python server.py OPERATORS.npz [--trace FILE]

Once every operator is registered and warm and the socket is bound it
prints ``{"port": N}``.  It then reads one command per line on stdin and
answers on stdout with one JSON line where noted:

* ``mark`` — CPU seconds so far plus ``ServeStats``/``CacheStats``;
* ``trace on`` / ``trace off`` — start or stop the span wrappers;
* ``stop`` (or end of input) — close the TCP front end, then the service,
  write the trace, and answer with peak RSS and CPU seconds.
"""

import argparse
import dataclasses
import json
import sys
import time

import numpy as np

from repro import obs
from repro.engine import FactorizationCache, set_default_cache
from repro.serve import SolverService, start_tcp_server
from repro.toeplitz import SymmetricBlockToeplitz

import tracing
from common import cpu_seconds, peak_rss_mb


def say(obj: dict) -> None:
    print(json.dumps(obj), flush=True)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("operators")
    ap.add_argument("--trace", metavar="FILE", default=None)
    args = ap.parse_args()
    obs.disable()

    tracer = tracing.Tracer() if args.trace else None
    undo = tracing.instrument(tracer) if tracer else None
    since = time.perf_counter()
    cache = FactorizationCache()
    set_default_cache(cache)
    service = SolverService(cache=cache)
    with np.load(args.operators) as data:
        for name in data.files:
            service.register(name, SymmetricBlockToeplitz(data[name]),
                             warm=True)
    handle = start_tcp_server(service)
    say({"port": handle.port})

    for line in sys.stdin:
        cmd = line.strip()
        if cmd == "mark":
            say({"cpu_s": cpu_seconds(),
                 "serve": dataclasses.asdict(service.stats()),
                 "cache": dataclasses.asdict(cache.stats())})
        elif cmd == "trace on" and tracer is not None and undo is None:
            undo = tracing.instrument(tracer)
            since = time.perf_counter()
        elif cmd == "trace off" and undo is not None:
            undo()
            undo = None
        elif cmd == "stop":
            break

    handle.close()
    service.close()
    final = {"cpu_s": cpu_seconds(), "peak_rss_mb": peak_rss_mb()}
    if tracer is not None:
        if undo is not None:
            undo()
        records = tracer.records()
        obs.write_jsonl(records, args.trace)
        final["trace"] = args.trace
        final["ref_ratio"] = tracing.solve_ref_ratio(tracer, records, since)
    say(final)
    return 0


if __name__ == "__main__":
    sys.exit(main())
