"""Per-round time-series collection.

A :class:`MetricsCollector` snapshots the data centre at the end of
every evaluation round — "the evaluation metrics are sampled at the end
of each round" (paper section V-A) — into flat NumPy-convertible series
usable directly by the figure drivers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from repro.datacenter.cluster import DataCenter
from repro.metrics.energy import datacenter_power_w

__all__ = ["RoundSeries", "MetricsCollector"]


@dataclass
class RoundSeries:
    """One metric's end-of-round samples."""

    name: str
    values: List[float] = field(default_factory=list)

    def append(self, value: float) -> None:
        self.values.append(float(value))

    def as_array(self) -> np.ndarray:
        return np.asarray(self.values, dtype=np.float64)

    def __len__(self) -> int:
        return len(self.values)


class MetricsCollector:
    """Samples a fixed set of series from a data centre each round.

    Series collected:

    ``active``               awake PMs
    ``overloaded``           awake PMs at/over capacity in any resource
    ``overloaded_fraction``  overloaded / active
    ``migrations``           migrations performed *during* the round
    ``cumulative_migrations`` running total since collection started
    ``migration_energy``     energy overhead (J) of the round's migrations
    ``dc_power``             instantaneous total power (W)
    """

    SERIES = (
        "active",
        "overloaded",
        "overloaded_fraction",
        "migrations",
        "cumulative_migrations",
        "migration_energy",
        "dc_power",
    )

    def __init__(self, dc: DataCenter) -> None:
        self.dc = dc
        self.series: Dict[str, RoundSeries] = {
            name: RoundSeries(name) for name in self.SERIES
        }
        self._migrations_at_start = dc.migration_count()
        self._energy_at_start = dc.total_migration_energy_j()
        self._last_migrations = self._migrations_at_start
        self._last_energy = self._energy_at_start

    def sample(self) -> None:
        """Record one end-of-round snapshot."""
        dc = self.dc
        total_migrations = dc.migration_count()
        total_energy = dc.total_migration_energy_j()
        # One PM demand matrix serves the overloaded count, its fraction
        # of the active PMs and the power.
        demand = dc.pm_demand_matrix()
        active = dc.active_count()
        overloaded = dc.overloaded_count(demand)
        self.series["active"].append(active)
        self.series["overloaded"].append(overloaded)
        self.series["overloaded_fraction"].append(overloaded / active if active else 0.0)
        self.series["migrations"].append(total_migrations - self._last_migrations)
        self.series["cumulative_migrations"].append(
            total_migrations - self._migrations_at_start
        )
        self.series["migration_energy"].append(total_energy - self._last_energy)
        self.series["dc_power"].append(datacenter_power_w(dc, demand=demand))
        self._last_migrations = total_migrations
        self._last_energy = total_energy

    def get(self, name: str) -> np.ndarray:
        try:
            return self.series[name].as_array()
        except KeyError:
            raise KeyError(
                f"unknown series {name!r}; available: {sorted(self.series)}"
            ) from None
