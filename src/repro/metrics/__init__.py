"""Evaluation metrics (paper section V-B).

* :mod:`~repro.metrics.sla` — SLAVO (overload-time fraction), SLALM
  (migration degradation), and their product SLAV;
* :mod:`~repro.metrics.energy` — migration energy overhead and data
  centre power accounting;
* :mod:`~repro.metrics.collector` — per-round time series collection
  (active / overloaded PM counts among them);
* :mod:`~repro.metrics.report` — aggregation across repetitions into
  the paper's median / p10 / p90 presentation.
"""
