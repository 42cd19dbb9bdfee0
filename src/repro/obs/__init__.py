"""Observability: structured tracing, phase profiling, telemetry, live
monitoring, post-mortems and benchmark artifacts.

The subsystem's modules, from emission to CI enforcement:

* :mod:`repro.obs.tracer` — typed JSONL event tracing with a
  zero-overhead no-op default (``NULL_TRACER``);
* :mod:`repro.obs.observers` — the end-of-round observer that traces
  the overload lifecycle;
* :mod:`repro.obs.profiler` — context-manager phase timers producing a
  per-phase wall-time breakdown (``NULL_PROFILER`` default);
* :mod:`repro.obs.telemetry` — the per-round counter/gauge registry
  behind ``glap run --telemetry`` (``NULL_TELEMETRY`` default);
* :mod:`repro.obs.heartbeat` — the live JSONL heartbeat stream of
  ``glap run --heartbeat``;
* :mod:`repro.obs.recorder` — the flight recorder: a bounded event ring
  dumped as a post-mortem bundle when a run dies;
* :mod:`repro.obs.watch` — ``glap watch``, the live report read from a
  heartbeat stream;
* :mod:`repro.obs.analytics` — columnar trace loading, conservation
  checks and the ``glap analyze`` health report;
* :mod:`repro.obs.summary` — the schema-versioned ``BENCH_run.json``
  run-summary artifact;
* :mod:`repro.obs.compare` — the ``glap bench-compare`` diff used by the
  CI ``perf-smoke`` gate.
"""

from repro.obs.analytics import (
    TraceFrame,
    diff_frames,
    format_health_report,
    frame_from_events,
    health_report,
    load_frame,
)
from repro.obs.compare import Finding, compare_summaries, format_findings
from repro.obs.observers import OverloadTraceObserver
from repro.obs.profiler import NULL_PROFILER, NullProfiler, PhaseProfiler, PhaseStats
from repro.obs.summary import (
    METRIC_FIELDS,
    SCHEMA,
    SCHEMA_VERSION,
    load_summary,
    run_summary,
    sweep_summary,
    write_summary,
)
from repro.obs.telemetry import (
    TELEMETRY_VERSION,
    NULL_TELEMETRY,
    Telemetry,
    TelemetryRegistry,
)
from repro.obs.tracer import (
    EVENT_KINDS,
    NULL_TRACER,
    JsonlTracer,
    RecordingTracer,
    Tracer,
    load_trace,
    read_trace,
)

__all__ = [
    "EVENT_KINDS",
    "Tracer",
    "NULL_TRACER",
    "JsonlTracer",
    "RecordingTracer",
    "read_trace",
    "load_trace",
    "TELEMETRY_VERSION",
    "Telemetry",
    "NULL_TELEMETRY",
    "TelemetryRegistry",
    "TraceFrame",
    "load_frame",
    "frame_from_events",
    "diff_frames",
    "health_report",
    "format_health_report",
    "NullProfiler",
    "NULL_PROFILER",
    "PhaseProfiler",
    "PhaseStats",
    "OverloadTraceObserver",
    "SCHEMA",
    "SCHEMA_VERSION",
    "METRIC_FIELDS",
    "run_summary",
    "sweep_summary",
    "write_summary",
    "load_summary",
    "Finding",
    "compare_summaries",
    "format_findings",
]
