"""Workload traces driving per-VM resource demand.

The paper replays CPU/memory utilisation from the Google Cluster traces
[12].  That dataset cannot be redistributed (and this environment has no
network), so — per the reproduction's substitution rule — we provide:

* :class:`~repro.traces.google.GoogleLikeTraceGenerator`, a synthetic
  generator calibrated to the published statistics of the 2011 Google
  trace (heavy-tailed per-task mean CPU around 20-30% of request, strong
  temporal autocorrelation, diurnal swing, occasional bursts, weak
  CPU-memory correlation, memory much flatter than CPU);
* :class:`~repro.traces.loader.CsvTrace` so the real trace, pre-processed
  into per-VM (cpu, mem) fraction series, can be dropped in unchanged;
* low-level component generators in :mod:`~repro.traces.synthetic` for
  custom workloads (e.g. the "bursty patterns" the paper leaves as
  future work — exercised by our ablation benches).

All sources implement :class:`~repro.traces.base.TraceSource`:
``demands_at(round) -> (n_vms, N_RESOURCES)`` fractions in [0, 1].
"""
