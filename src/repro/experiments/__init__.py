"""Experiment harness: scenarios, the runner, and per-figure drivers.

* :mod:`~repro.experiments.scenarios` — scenario dataclass + the paper's
  grid (500/1000/2000 PMs x ratios 2/3/4) and a laptop-scale preset;
* :mod:`~repro.experiments.runner` — builds a reproducible environment
  (trace + placement shared across policies per seed) and runs one
  policy through warmup + evaluation;
* :mod:`~repro.experiments.parallel` — decomposes a sweep into
  (scenario, policy, repetition) work units and executes them
  sequentially or on a process pool (``jobs`` / ``$REPRO_JOBS``), with
  bit-identical results either way;
* :mod:`~repro.experiments.figures` — drivers that regenerate every
  figure and table of section V, and the registry of those exhibits;
* :mod:`~repro.experiments.expectations` — the paper's claims about
  each exhibit, evaluated on measured data.
"""
