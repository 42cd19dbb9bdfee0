"""Evaluation metrics (paper section V-B).

* :mod:`~repro.metrics.sla` — SLAVO (overload-time fraction), SLALM
  (migration degradation), and their product SLAV;
* :mod:`~repro.metrics.energy` — migration energy overhead and data
  centre power accounting;
* :mod:`~repro.metrics.consolidation` — active / overloaded PM counts
  and packing efficiency against the BFD baseline;
* :mod:`~repro.metrics.collector` — per-round time series collection;
* :mod:`~repro.metrics.report` — aggregation across repetitions into
  the paper's median / p10 / p90 presentation.
"""

from repro.metrics.sla import slavo, slalm, slav, datacenter_slavo, datacenter_slalm
from repro.metrics.energy import (
    migration_energy_j,
    datacenter_power_w,
    datacenter_energy_j,
)
from repro.metrics.consolidation import (
    active_pm_count,
    overloaded_pm_count,
    overloaded_fraction,
    packing_efficiency,
)
from repro.metrics.collector import RoundSeries, MetricsCollector
from repro.metrics.report import RunResult, aggregate_runs, AggregatedMetric

__all__ = [
    "slavo",
    "slalm",
    "slav",
    "datacenter_slavo",
    "datacenter_slalm",
    "migration_energy_j",
    "datacenter_power_w",
    "datacenter_energy_j",
    "active_pm_count",
    "overloaded_pm_count",
    "overloaded_fraction",
    "packing_efficiency",
    "RoundSeries",
    "MetricsCollector",
    "RunResult",
    "aggregate_runs",
    "AggregatedMetric",
]
