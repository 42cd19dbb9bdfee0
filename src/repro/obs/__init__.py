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
* :mod:`repro.obs.analytics` — conservation checks over a trace's
  events and the ``glap analyze`` health report;
* :mod:`repro.obs.summary` — the schema-versioned ``BENCH_run.json``
  run-summary artifact;
* :mod:`repro.obs.compare` — the ``glap bench-compare`` diff used by the
  CI ``perf-smoke`` gate.
"""
