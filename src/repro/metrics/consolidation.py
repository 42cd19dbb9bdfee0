"""Consolidation-quality metrics: active / overloaded PMs, packing
efficiency (paper section V-B and Figures 6-7)."""

from __future__ import annotations

from repro.baselines.bfd import bfd_baseline_active_pms
from repro.datacenter.cluster import DataCenter

__all__ = [
    "active_pm_count",
    "overloaded_pm_count",
    "overloaded_fraction",
    "packing_efficiency",
]


def active_pm_count(dc: DataCenter) -> int:
    """PMs currently awake."""
    return dc.active_count()


def overloaded_pm_count(dc: DataCenter) -> int:
    """Awake PMs whose demand meets/exceeds capacity in any resource."""
    return dc.overloaded_count()


def overloaded_fraction(dc: DataCenter) -> float:
    """Overloaded / active PMs — the y-axis of Figure 6 (0 if none active)."""
    active = dc.active_count()
    if active == 0:
        return 0.0
    return dc.overloaded_count() / active


def packing_efficiency(dc: DataCenter) -> float:
    """BFD-baseline PM count / active PM count.

    1.0 means the policy is as tight as offline BFD; > 1.0 means tighter
    than the no-violation baseline (necessarily at SLA cost — GRMP and
    PABFD exhibit this in the paper); < 1.0 means head-room kept.
    The baseline packs into identical bins: a fleet whose ``store.pm_cap``
    rows differ raises ``ValueError`` (``bfd_baseline_active_pms``).
    """
    active = dc.active_count()
    if active == 0:
        return 1.0
    return bfd_baseline_active_pms(dc) / active
