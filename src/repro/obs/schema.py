"""The unified trace-record schema shared by real and simulated runs.

Both instrumentation sources — the in-process span tracer
(:mod:`repro.obs.spans`) and the simulated-machine event log
(:class:`repro.machine.trace.Trace`) — export the same flat record
shape, so one consumer (the JSONL sink, the CI artifact, an external
trace viewer) handles either:

``{"v": 1, "source": str, "id": int, "parent": int | None,
   "name": str, "kind": str, "rank": int | None,
   "start": float, "end": float, "attrs": dict}``

``kind`` classifies the record for utilization-style roll-ups;
:data:`COMPUTE_KINDS` is the single authoritative list of kinds that
count as useful compute.  Both ``Trace.utilization`` (simulated runs)
and span-based roll-ups consult it, so adding a new phase kind in one
place cannot silently count as idle in the other.
"""

from __future__ import annotations

__all__ = [
    "SCHEMA_VERSION",
    "COMPUTE_KINDS",
    "COMM_KINDS",
    "KIND_EXECUTION",
    "KIND_REQUEST",
    "SOURCE_ENGINE",
    "SOURCE_SIMULATOR",
    "SOURCE_MULTIPROCESS",
    "SOURCE_SERVE",
    "is_compute_kind",
    "make_record",
]

#: Version tag stamped on every exported record.
SCHEMA_VERSION = 1

#: Phase kinds that count as useful compute in utilization roll-ups.
#: The simulated SPMD programs emit "compute"; the Schur elimination
#: loop splits its work into "blocking" / "panel" (building reflectors)
#: and "application" (applying them) — Section 6's cost split.
COMPUTE_KINDS = ("compute", "blocking", "application", "panel")

#: Communication / synchronization kinds (everything else is idle).
#: "gather" is the collection of the distributed ``R`` factor.
COMM_KINDS = ("shift", "broadcast", "barrier", "put", "recv", "gather")

#: Whole-execution summary records (one per ``engine.execute``): wall
#: time, RHS panel width, model vs counted flops, cache hit, plus the
#: precision axis — requested ``precision`` ("fp64"/"fp32"),
#: the ``factor_dtype`` that actually drove the solves, and
#: ``refine_sweeps`` (None for a plain direct solve).  Not a
#: compute kind — the execution's compute is broken out in its child
#: span records; this one exists so a metrics endpoint can consume
#: per-solve throughput without re-aggregating the span tree.
KIND_EXECUTION = "execution"

#: Per-request summary records emitted by the solver service (one per
#: request that completed through :mod:`repro.serve`): queue wait, the
#: batch it was coalesced into and that batch's panel width, end-to-end
#: latency.  Like :data:`KIND_EXECUTION` it is a summary, not a compute
#: kind — the numeric work appears separately as the batch's
#: ``engine.execute`` records.
KIND_REQUEST = "request"

SOURCE_ENGINE = "engine"
SOURCE_SIMULATOR = "simulator"
#: Records exported by the real multiprocess backend's per-PE workers.
SOURCE_MULTIPROCESS = "multiprocess"
#: Records exported by the solver service's request dispatcher.
SOURCE_SERVE = "serve"


def is_compute_kind(kind: str) -> bool:
    """Whether ``kind`` counts toward compute utilization."""
    return kind in COMPUTE_KINDS


def make_record(*, source: str, rec_id: int, parent: int | None,
                name: str, kind: str, rank: int | None,
                start: float, end: float,
                attrs: dict | None = None) -> dict:
    """Assemble one schema-conforming record (plain JSON-ready dict)."""
    return {
        "v": SCHEMA_VERSION,
        "source": source,
        "id": int(rec_id),
        "parent": None if parent is None else int(parent),
        "name": name,
        "kind": kind,
        "rank": None if rank is None else int(rank),
        "start": float(start),
        "end": float(end),
        "attrs": dict(attrs or {}),
    }
