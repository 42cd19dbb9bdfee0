"""Observability: structured tracing, phase profiling, telemetry, live
monitoring, post-mortems and benchmark artifacts.

The subsystem's modules, from emission to CI enforcement:

* :mod:`repro.obs.tracer` — typed JSONL event tracing with a
  zero-overhead no-op default (``NULL_TRACER``);
* :mod:`repro.obs.observers` — the end-of-round observer that traces
  the overload lifecycle;
* :mod:`repro.obs.profiler` — context-manager phase timers producing a
  per-phase wall-time breakdown (``NULL_PROFILER`` default);
* :mod:`repro.obs.telemetry` — the registry of counter totals and
  gauge samples behind ``glap run --telemetry`` (``NULL_TELEMETRY``
  default);
* :mod:`repro.obs.heartbeat` — the live JSONL heartbeat stream of
  ``glap run --heartbeat``, the one live-run artefact and the run's
  per-round record (each tick carries the totals): a bounded event
  ring rides along and a run that dies ends the stream with a
  post-mortem ``abort`` record;
* :mod:`repro.obs.watch` — ``glap watch``, the live report read from a
  heartbeat stream;
* :mod:`repro.obs.analytics` — conservation checks over a trace's
  events and the ``glap analyze`` health report;
* :mod:`repro.obs.summary` — the schema-versioned ``BENCH_run.json``
  run-summary artifact;
* :mod:`repro.obs.compare` — the ``glap bench-compare`` diff used by the
  CI ``perf-smoke`` gate.
"""
