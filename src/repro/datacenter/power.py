"""Linear PM power model.

The paper (section V-B) models "power consumption of machine n ... as a
linear function of its CPU consumption".  The idle/max constants are the
SPECpower-derived figures for the HP ProLiant ML110 G5 used throughout
the DVMC literature (CloudSim / Beloglazov & Buyya), which is also where
the paper's PABFD baseline comes from.
"""

from __future__ import annotations

from repro.util.validation import check_fraction, check_non_negative

__all__ = ["LinearPowerModel"]


class LinearPowerModel:
    """``P(u) = P_idle + (P_max - P_idle) * u`` for CPU utilisation u."""

    # HP ProLiant ML110 G5 (SPECpower ssj2008): ~93.7 W idle, ~135 W at 100%.
    DEFAULT_IDLE_W = 93.7
    DEFAULT_MAX_W = 135.0

    def __init__(
        self,
        idle_watts: float = DEFAULT_IDLE_W,
        max_watts: float = DEFAULT_MAX_W,
    ) -> None:
        self.idle_watts = check_non_negative(idle_watts, "idle_watts")
        self.max_watts = check_non_negative(max_watts, "max_watts")
        if self.max_watts < self.idle_watts:
            raise ValueError(
                f"max_watts ({max_watts}) must be >= idle_watts ({idle_watts})"
            )

    def power(self, cpu_utilization: float) -> float:
        """Instantaneous power draw in watts at the given CPU utilisation."""
        u = check_fraction(cpu_utilization, "cpu_utilization")
        return self.idle_watts + (self.max_watts - self.idle_watts) * u

    def __repr__(self) -> str:
        return f"LinearPowerModel(idle={self.idle_watts}W, max={self.max_watts}W)"
