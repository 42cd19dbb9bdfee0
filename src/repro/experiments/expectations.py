"""The paper's reported results, machine-readable, plus a shape checker.

Everything section V reports numerically is encoded here so that a
measured sweep can be compared against the paper *programmatically* —
EXPERIMENTS.md is generated from this comparison rather than curated by
hand.  Absolute numbers are not expected to match (different workload
data, different scale); what is checked is the paper's qualitative
shape: orderings, rough factors, curve characters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from repro.experiments.parallel import SweepResults

__all__ = [
    "PAPER_TABLE1",
    "PAPER_OVERLOADED_FRACTION",
    "PAPER_OVERLOAD_REDUCTION",
    "PAPER_MIGRATION_REDUCTION",
    "ShapeCheck",
    "check_shape",
    "format_shape_report",
]

#: Table I of the paper: SLAV per "size-ratio" row and policy.
PAPER_TABLE1: Dict[str, Dict[str, float]] = {
    "500-2": {"GLAP": 0.00011, "EcoCloud": 0.00016, "GRMP": 0.27, "PABFD": 0.07},
    "500-3": {"GLAP": 0.00017, "EcoCloud": 0.00045, "GRMP": 0.48, "PABFD": 0.19},
    "500-4": {"GLAP": 0.00027, "EcoCloud": 0.00078, "GRMP": 0.72, "PABFD": 0.36},
    "1000-2": {"GLAP": 0.00017, "EcoCloud": 0.00018, "GRMP": 0.38, "PABFD": 0.18},
    "1000-3": {"GLAP": 0.00035, "EcoCloud": 0.00078, "GRMP": 0.61, "PABFD": 0.36},
    "1000-4": {"GLAP": 0.00059, "EcoCloud": 0.00097, "GRMP": 0.88, "PABFD": 0.57},
    "2000-2": {"GLAP": 0.00033, "EcoCloud": 0.00076, "GRMP": 0.41, "PABFD": 0.29},
    "2000-3": {"GLAP": 0.00066, "EcoCloud": 0.0014, "GRMP": 0.84, "PABFD": 0.48},
    "2000-4": {"GLAP": 0.001, "EcoCloud": 0.002, "GRMP": 1.24, "PABFD": 0.48},
}

#: Section V-C.2: fraction of PMs overloaded per policy.
PAPER_OVERLOADED_FRACTION: Dict[str, float] = {
    "GLAP": 0.12,
    "EcoCloud": 0.22,
    "PABFD": 0.58,
    "GRMP": 0.75,
}

#: Abstract / V-C.3: GLAP's reduction in overloaded PMs vs each rival.
PAPER_OVERLOAD_REDUCTION: Dict[str, float] = {
    "EcoCloud": 0.43,
    "GRMP": 0.78,
    "PABFD": 0.73,
}

#: V-C.4: GLAP's reduction in migrations vs each rival.
PAPER_MIGRATION_REDUCTION: Dict[str, float] = {
    "EcoCloud": 0.23,
    "GRMP": 0.37,
    "PABFD": 0.70,
}


@dataclass(frozen=True)
class ShapeCheck:
    """One qualitative claim of the paper, evaluated on measured data."""

    claim: str
    paper: str
    measured: str
    holds: bool


def _policy_means(results: SweepResults, metric_fn) -> Dict[str, float]:
    out = {}
    for policy in results.policies:
        values = [
            metric_fn(run)
            for scenario in results.scenarios
            for run in results.of(scenario, policy)
        ]
        out[policy] = float(np.mean(values))
    return out


def check_shape(results: SweepResults) -> List[ShapeCheck]:
    """Evaluate the paper's qualitative claims against a measured sweep."""
    checks: List[ShapeCheck] = []

    overloaded = _policy_means(results, lambda r: r.mean_of("overloaded_fraction"))
    migrations = _policy_means(results, lambda r: float(r.total_migrations))
    slav = _policy_means(results, lambda r: r.slav)
    energy = _policy_means(results, lambda r: r.migration_energy_j)

    def fmt(d: Dict[str, float], spec: str = ".3g") -> str:
        return ", ".join(f"{k}={v:{spec}}" for k, v in d.items())

    checks.append(
        ShapeCheck(
            claim="GLAP has the lowest overloaded-PM fraction",
            paper=fmt(PAPER_OVERLOADED_FRACTION, ".0%"),
            measured=fmt(overloaded, ".1%"),
            holds=min(overloaded, key=overloaded.get) == "GLAP",
        )
    )
    for rival, expected in PAPER_OVERLOAD_REDUCTION.items():
        measured_red = (
            1.0 - overloaded["GLAP"] / overloaded[rival] if overloaded[rival] > 0 else 1.0
        )
        checks.append(
            ShapeCheck(
                claim=f"GLAP reduces overloaded PMs vs {rival}",
                paper=f"{expected:.0%}",
                measured=f"{measured_red:.0%}",
                holds=measured_red > 0.0,
            )
        )
    checks.append(
        ShapeCheck(
            claim="GLAP has the fewest migrations",
            paper="23-70% fewer than rivals",
            measured=fmt(migrations, ".0f"),
            holds=min(migrations, key=migrations.get) == "GLAP",
        )
    )
    checks.append(
        ShapeCheck(
            claim="SLAV ordering: GLAP lowest, GRMP/PABFD the worst pair",
            paper="GLAP < EcoCloud < PABFD < GRMP",
            measured=fmt(slav, ".2e"),
            holds=(
                min(slav, key=slav.get) == "GLAP"
                and max(slav, key=slav.get) in ("GRMP", "PABFD")
            ),
        )
    )
    checks.append(
        ShapeCheck(
            claim="GLAP has the lowest migration energy overhead",
            paper="GLAP least, PABFD most (Figure 10)",
            measured=fmt(energy, ".0f"),
            holds=min(energy, key=energy.get) == "GLAP",
        )
    )
    return checks


def format_shape_report(checks: List[ShapeCheck]) -> str:
    lines = ["Paper-shape report", "=" * 70]
    for c in checks:
        status = "OK " if c.holds else "DIFF"
        lines.append(f"[{status}] {c.claim}")
        lines.append(f"       paper:    {c.paper}")
        lines.append(f"       measured: {c.measured}")
    held = sum(1 for c in checks if c.holds)
    lines.append("=" * 70)
    lines.append(f"{held}/{len(checks)} qualitative claims hold at this scale")
    return "\n".join(lines)
