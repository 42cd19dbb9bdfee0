"""Consolidation policies the paper compares against.

* :mod:`~repro.baselines.grmp` — GRMP [Wuhib et al.]: aggressive gossip
  packing with a static 0.8 upper threshold;
* :mod:`~repro.baselines.ecocloud` — EcoCloud [Mastroianni et al.]:
  probabilistic gradual thresholds (T1 = 0.3, T2 = 0.8) with Bernoulli
  accept trials;
* :mod:`~repro.baselines.pabfd` — PABFD [Beloglazov & Buyya]: the
  centralised power-aware best-fit-decreasing heuristic with a
  MAD-adaptive overload threshold;
* :mod:`~repro.baselines.bfd` — the offline Best-Fit-Decreasing packing
  used as the no-SLA-violation packing baseline of Figure 6;
* :mod:`~repro.baselines.thresholds` — the MAD robust threshold
  estimator.

All policies implement :class:`~repro.baselines.base.ConsolidationPolicy`
so the experiment runner treats GLAP and baselines uniformly.
"""
