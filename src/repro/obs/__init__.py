"""Observability: spans, metrics, and one trace schema end to end.

The paper's evaluation is quantitative — flop counts (eqs. 25–32),
achieved rates, per-PE phase breakdowns — and this package makes the
reproduction observable the same way in *production* terms:

* :mod:`repro.obs.spans` — hierarchical wall-time spans threaded
  through ``engine.factor`` / ``engine.execute`` down to the Schur
  elimination phases, with flop-model attributes; zero overhead while
  disabled;
* :mod:`repro.obs.metrics` — thread-safe counters/gauges (cache
  occupancy, refinement residuals, execution totals) with a
  Prometheus text exposition (:func:`render_prometheus`);
* :mod:`repro.obs.schema` / :mod:`repro.obs.export` — one flat record
  schema shared by real spans and the simulated machine's
  :class:`~repro.machine.trace.Trace`, serialized as JSONL for the
  benchmark harness and CI artifacts;
* :mod:`repro.obs.analyze` — critical-path, per-rank utilization /
  imbalance and achieved-vs-modeled flop reports over any trace;
* :mod:`repro.obs.timeline` — Chrome trace-event export
  (``chrome://tracing`` / Perfetto);
* :mod:`repro.obs.health` — numerical-health gauges (rotation margins,
  §8.2 growth factors, admission decisions, refinement convergence)
  with a breakdown early-warning summary.

Enable per-process with ``REPRO_OBS=1``, programmatically with
:func:`enable`, or per-run with the CLI ``--profile`` flag; execution
results then carry a :class:`Profile` (span tree + metrics snapshot).
"""

from repro.obs.schema import (
    COMM_KINDS,
    COMPUTE_KINDS,
    KIND_EXECUTION,
    KIND_REQUEST,
    SCHEMA_VERSION,
    SOURCE_ENGINE,
    SOURCE_MULTIPROCESS,
    SOURCE_SERVE,
    SOURCE_SIMULATOR,
    is_compute_kind,
    make_record,
)
from repro.obs.spans import (
    Profile,
    Span,
    adopt_span,
    current_span,
    disable,
    enable,
    enabled,
    profile_from,
    record_phase,
    render_tree,
    span,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    MetricsRegistry,
    default_registry,
    render_prometheus,
    set_default_registry,
)
from repro.obs.health import health_summary, render_health
from repro._lazy import lazy_exports

# Export, analysis and timeline load on first use.
__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.obs.export": ("merge_rank_traces", "read_jsonl", "span_records",
                         "trace_records", "write_jsonl"),
    "repro.obs.analyze": ("TraceReport", "analyze_file", "analyze_records"),
    "repro.obs.timeline": ("chrome_trace", "write_chrome_trace"),
})

__all__ = [
    "COMM_KINDS",
    "COMPUTE_KINDS",
    "KIND_EXECUTION",
    "KIND_REQUEST",
    "SCHEMA_VERSION",
    "make_record",
    "SOURCE_ENGINE",
    "SOURCE_MULTIPROCESS",
    "SOURCE_SERVE",
    "SOURCE_SIMULATOR",
    "is_compute_kind",
    "Profile",
    "Span",
    "adopt_span",
    "current_span",
    "disable",
    "enable",
    "enabled",
    "profile_from",
    "record_phase",
    "render_tree",
    "span",
    "Counter",
    "Gauge",
    "MetricsRegistry",
    "default_registry",
    "render_prometheus",
    "set_default_registry",
    "merge_rank_traces",
    "read_jsonl",
    "span_records",
    "trace_records",
    "write_jsonl",
    "TraceReport",
    "analyze_file",
    "analyze_records",
    "chrome_trace",
    "write_chrome_trace",
    "health_summary",
    "render_health",
]
