"""Energy accounting.

Figure 10's quantity is the *energy overhead of migrations* (summed
eq. 3 over all performed migrations).  We additionally expose total data
centre power — not a paper figure, but the quantity consolidation
ultimately optimises; the metrics collector samples it every round.
"""

from __future__ import annotations

from typing import Iterable, Optional

import numpy as np

from repro.datacenter.cluster import DataCenter
from repro.datacenter.migration import MigrationRecord
from repro.datacenter.power import LinearPowerModel

__all__ = ["migration_energy_j", "datacenter_power_w"]


def migration_energy_j(migrations: Iterable[MigrationRecord]) -> float:
    """Total migration energy overhead in joules."""
    return float(sum(m.energy_j for m in migrations))


def datacenter_power_w(
    dc: DataCenter,
    power_model: Optional[LinearPowerModel] = None,
    demand: Optional[np.ndarray] = None,
) -> float:
    """Instantaneous power of all awake PMs (sleeping PMs draw ~0).

    ``demand``: a current ``dc.pm_demand_matrix()`` the caller already
    holds, to save deriving the per-PM CPU demand again."""
    model = power_model if power_model is not None else LinearPowerModel()
    # Vectorised P(u) = P_idle + (P_max - P_idle) * u over awake PMs;
    # dc.cpu_utilizations() already caps u at 1.
    u = dc.cpu_utilizations(demand)[dc.awake_mask()]
    return float(
        model.idle_watts * u.size
        + (model.max_watts - model.idle_watts) * u.sum()
    )
