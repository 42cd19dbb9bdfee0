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
* :mod:`~repro.experiments.figures` / :mod:`~repro.experiments.tables`
  — drivers that regenerate every figure and table of section V.
"""

from repro.experiments.scenarios import (
    Scenario,
    paper_grid,
    scaled_grid,
    PAPER_SIZES,
    PAPER_RATIOS,
)
from repro.experiments.runner import (
    POLICY_NAMES,
    make_policy,
    build_simulation,
    build_trace,
    run_policy,
)
from repro.experiments.parallel import (
    SweepResults,
    SweepExecutionError,
    resolve_jobs,
    run_sweep,
)
from repro.experiments.figures import (
    figure5_convergence,
    figure6_overload_fraction,
    figure7_overloaded_pms,
    figure8_migrations,
    figure9_cumulative_migrations,
    figure10_energy_overhead,
)
from repro.experiments.tables import table1_sla
from repro.experiments.store import save_results, load_results, save_sweep, load_sweep
from repro.experiments.expectations import check_shape, format_shape_report

__all__ = [
    "Scenario",
    "paper_grid",
    "scaled_grid",
    "PAPER_SIZES",
    "PAPER_RATIOS",
    "POLICY_NAMES",
    "make_policy",
    "build_simulation",
    "build_trace",
    "run_policy",
    "SweepResults",
    "SweepExecutionError",
    "resolve_jobs",
    "run_sweep",
    "figure5_convergence",
    "figure6_overload_fraction",
    "figure7_overloaded_pms",
    "figure8_migrations",
    "figure9_cumulative_migrations",
    "figure10_energy_overhead",
    "table1_sla",
    "save_results",
    "load_results",
    "save_sweep",
    "load_sweep",
    "check_shape",
    "format_shape_report",
]
