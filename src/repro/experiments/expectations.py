"""The paper's reported results, machine-readable, plus its claims.

Everything section V reports numerically is encoded here so that a
measured sweep can be compared against the paper *programmatically* —
EXPERIMENTS.md is generated from this comparison rather than curated by
hand.  Absolute numbers are not expected to match (different workload
data, different scale); what is checked is the paper's qualitative
shape: orderings, rough factors, curve characters.

Every claim is one :class:`ShapeCheck`, tagged with the exhibit it is
about (an :data:`~repro.experiments.figures.EXHIBITS` id) or with
``"shape"`` when only the shape report judges it.  The paper bench
requires each exhibit's claims; the shape report prints them all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Hashable, Iterable, List, Optional, Tuple

import numpy as np

from repro.experiments.figures import (
    _cells,
    figure6_overload_fraction,
    figure7_overloaded_pms,
    figure9_cumulative_migrations,
    figure10_energy_overhead,
    table1_sla,
)
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

    exhibit: str
    claim: str
    paper: str
    measured: str
    holds: bool


_RIVALS = tuple(PAPER_OVERLOAD_REDUCTION)
_WORST_PAIR = ("GRMP", "PABFD")


def _means(pairs: Iterable[Tuple[Hashable, float]]) -> Dict:
    """The mean of the values per key (a policy, a ratio), keys in the
    order first seen."""
    values: Dict = {}
    for key, value in pairs:
        values.setdefault(key, []).append(value)
    return {key: float(np.mean(v)) for key, v in values.items()}


def _run_means(results: SweepResults, metric) -> Dict[str, float]:
    """Each policy's mean of ``metric(run)`` over every run of the grid."""
    return _means((policy, metric(run)) for _, policy, runs in _cells(results) for run in runs)


def _fmt(d: Dict, spec: str = ".3g") -> str:
    return ", ".join(f"{k}={v:{spec}}" for k, v in d.items())


def _pair(d: Dict[Tuple[int, str], float], a: str, b: str, spec: str) -> str:
    """``d``'s values for policies ``a`` and ``b`` at each ratio."""
    ratios = sorted({r for (r, _) in d})
    return ", ".join(f"ratio {r}: {a} {d[(r, a)]:{spec}}, {b} {d[(r, b)]:{spec}}" for r in ratios)


def _reduction(glap: float, rival: float) -> float:
    """How much lower GLAP's value is, as a fraction of the rival's.  A
    rival at 0 leaves nothing to reduce: 0 if GLAP is at 0 too, else
    ``-inf`` (GLAP is worse than a perfect rival)."""
    if rival > 0:
        return 1.0 - glap / rival
    return 0.0 if glap == 0 else -math.inf


def _fewer(glap: float, rival: float, by: float) -> bool:
    """GLAP's value is more than ``by`` below the rival's (see
    :func:`_reduction`); against a rival at 0, only a GLAP at 0 holds."""
    return _reduction(glap, rival) > by or glap == rival == 0


def _best(d: Dict[str, float]) -> str:
    return min(d, key=d.get)


def _worst(d: Dict[str, float]) -> str:
    return max(d, key=d.get)


def _last(series: Dict[str, list], phase: str) -> float:
    """The last similarity sampled in ``phase``; NaN (which no
    comparison holds for) when the phase was never sampled."""
    values = [s for s, p in zip(series["similarity"], series["phase"]) if p == phase]
    return values[-1] if values else float("nan")


def _frontload_fraction(curve: np.ndarray) -> float:
    """Fraction of all migrations done in the first quarter of the run."""
    if curve[-1] == 0:
        return 0.0
    quarter = max(1, len(curve) // 4)
    return float(curve[quarter - 1] / curve[-1])


def _convergence_checks(data: Dict[int, Dict[str, list]]) -> List[ShapeCheck]:
    """Fig. 5: learning alone (WOG) stalls, aggregation (WG) converges."""
    ends = {ratio: (_last(s, "learn"), _last(s, "aggregate")) for ratio, s in data.items()}
    wog = ", ".join(f"ratio {r}: {v:.3f}" for r, (v, _) in ends.items())
    wg = ", ".join(f"ratio {r}: {v:.3f}" for r, (_, v) in ends.items())
    both = ", ".join(f"ratio {r}: {a:.3f} -> {b:.3f}" for r, (a, b) in ends.items())
    return [
        ShapeCheck("5", "Both phases are sampled at every ratio", "WOG and WG curves",
                   both, all(not np.isnan(a) and not np.isnan(b) for a, b in ends.values())),
        ShapeCheck("5", "Learning alone (WOG) ends below 0.95 similarity", "stalls ~0.45",
                   wog, all(a < 0.95 for a, _ in ends.values())),
        ShapeCheck("5", "Aggregation (WG) ends above 0.9 similarity", "-> ~1",
                   wg, all(b > 0.9 for _, b in ends.values())),
        ShapeCheck("5", "Aggregation improves on learning alone", "WOG -> WG rises",
                   both, all(b > a for a, b in ends.values())),
    ]


def _fraction_means(results: SweepResults) -> Dict[str, float]:
    """Each policy's grid-mean overloaded/active fraction (Fig. 6)."""
    return _means((r["policy"], r["overloaded_fraction"]) for r in figure6_overload_fraction(results))


def _fig6_checks(results: SweepResults) -> List[ShapeCheck]:
    fraction = _fraction_means(results)
    glap = [r for r in figure6_overload_fraction(results) if r["policy"] == "GLAP"]
    return [
        ShapeCheck("6", "GLAP has the lowest overloaded-PM fraction",
                   _fmt(PAPER_OVERLOADED_FRACTION, ".0%"), _fmt(fraction, ".1%"),
                   _best(fraction) == "GLAP"),
        ShapeCheck("6", "GRMP/PABFD have the highest overloaded-PM fraction",
                   "GRMP 75%, PABFD 58%", _fmt(fraction, ".1%"),
                   _worst(fraction) in _WORST_PAIR),
        ShapeCheck("6", "GLAP keeps fewer PMs active than the data centre has",
                   "GLAP consolidates",
                   ", ".join(f"{r['scenario']}: {r['mean_active']:.1f}/{r['n_pms']}" for r in glap),
                   all(r["mean_active"] < r["n_pms"] for r in glap)),
        ShapeCheck("6", "GLAP keeps fewer than 2.5x the BFD baseline's PMs active",
                   "a bit more than the baseline",
                   ", ".join(f"{r['scenario']}: {r['mean_active']:.1f} vs {r['bfd_baseline']:.1f}"
                             for r in glap),
                   all(r["mean_active"] < 2.5 * r["bfd_baseline"] for r in glap)),
    ]


def _fig7_checks(results: SweepResults) -> List[ShapeCheck]:
    per_round = _means((r["policy"], r["mean"]) for r in figure7_overloaded_pms(results))
    reduction = {o: _reduction(per_round["GLAP"], per_round[o]) for o in _RIVALS}
    return [
        ShapeCheck("7", "GLAP has the fewest overloaded PMs per round",
                   "GLAP smallest", _fmt(per_round, ".2f"), _best(per_round) == "GLAP"),
        ShapeCheck("7", "GRMP/PABFD have the most overloaded PMs per round",
                   "GRMP worst", _fmt(per_round, ".2f"), _worst(per_round) in _WORST_PAIR),
        ShapeCheck("7", "GLAP has over 30% fewer overloaded PMs per round than each rival",
                   _fmt(PAPER_OVERLOAD_REDUCTION, ".0%"), _fmt(reduction, ".0%"),
                   all(_fewer(per_round["GLAP"], per_round[o], 0.3) for o in _RIVALS)),
    ]


def _fig8_checks(results: SweepResults) -> List[ShapeCheck]:
    migrations = _run_means(results, lambda r: float(r.total_migrations))
    by_ratio = _means(
        (key["ratio"], run.total_migrations) for key, _, runs in _cells(results) for run in runs
    )
    lo, hi = by_ratio[min(by_ratio)], by_ratio[max(by_ratio)]
    return [
        ShapeCheck("8", "GLAP has the fewest migrations",
                   "23-70% fewer than rivals", _fmt(migrations, ".0f"),
                   _best(migrations) == "GLAP"),
        ShapeCheck("8", "Migrations grow with the workload ratio (all policies)",
                   "more migrations at higher ratios",
                   _fmt({f"ratio {r}": v for r, v in sorted(by_ratio.items())}, ".1f"),
                   len(by_ratio) < 2 or hi > lo),
    ]


def _fig9_checks(results: SweepResults) -> List[ShapeCheck]:
    curves = figure9_cumulative_migrations(results)
    front = {k: _frontload_fraction(c) for k, c in curves.items()}
    tail = {k: float(c[-1] - c[len(c) // 2]) for k, c in curves.items()}
    ratios = sorted({r for (r, _) in curves})
    return [
        ShapeCheck("9", "GLAP front-loads its migrations more than PABFD",
                   "gossip policies migrate early, PABFD linearly",
                   _pair(front, "GLAP", "PABFD", ".2f"),
                   all(front[(r, "GLAP")] > front[(r, "PABFD")] for r in ratios)),
        ShapeCheck("9", "GRMP front-loads its migrations more than PABFD",
                   "gossip policies migrate early, PABFD linearly",
                   _pair(front, "GRMP", "PABFD", ".2f"),
                   all(front[(r, "GRMP")] > front[(r, "PABFD")] for r in ratios)),
        ShapeCheck("9", "PABFD migrates at least as much as GLAP in the second half",
                   "PABFD keeps migrating all day",
                   _pair(tail, "PABFD", "GLAP", ".1f"),
                   all(tail[(r, "PABFD")] >= tail[(r, "GLAP")] for r in ratios)),
    ]


def _fig10_checks(results: SweepResults) -> List[ShapeCheck]:
    rows = figure10_energy_overhead(results)
    median_j = _means((r["policy"], r["median_j"]) for r in rows)
    energies, volumes = [], []
    for _, _, runs in _cells(results):
        energies.append(np.mean([r.migration_energy_j for r in runs]))
        volumes.append(np.mean([r.total_migrations for r in runs]))
    with np.errstate(divide="ignore", invalid="ignore"):
        corr = np.corrcoef(energies, volumes)[0, 1]
    return [
        ShapeCheck("10", "GLAP has the lowest median migration energy",
                   "GLAP least, PABFD most", _fmt(median_j, ".0f"),
                   _best(median_j) == "GLAP"),
        ShapeCheck("10", "Migration energy is never negative", "energy >= 0",
                   f"min {min(r['median_j'] for r in rows):.0f} J",
                   all(r["median_j"] >= 0.0 for r in rows)),
        ShapeCheck("10", "Migration energy tracks migration volume (corr > 0.5)",
                   "more migrations, mostly more energy", f"corr={corr:.2f}",
                   bool(corr > 0.5)),
    ]


def _table1_checks(results: SweepResults) -> List[ShapeCheck]:
    table = table1_sla(results)
    points = [{p: row[p] for p in results.policies} for row in table]
    wins = sum(_best(values) == "GLAP" for values in points)
    losses = sum(_worst(values) == "GLAP" for values in points)
    means = _means((p, row[p]) for row in table for p in results.policies)
    glap = _means((row["ratio"], row["GLAP"]) for row in table)
    lo, hi = glap[min(glap)], glap[max(glap)]
    return [
        ShapeCheck("table1", "GLAP never has the worst SLAV",
                   "GLAP lowest at every point", f"GLAP worst at {losses}/{len(table)}",
                   losses == 0),
        ShapeCheck("table1", "GLAP has the lowest SLAV on at least half the rows",
                   "GLAP lowest at every point", f"GLAP lowest at {wins}/{len(table)}",
                   wins >= len(table) / 2),
        ShapeCheck("table1", "GLAP's mean SLAV is below 0.7x GRMP's and PABFD's",
                   "orders of magnitude below", _fmt(means, ".2e"),
                   all(means["GLAP"] < 0.7 * means[p] for p in _WORST_PAIR)),
        ShapeCheck("table1", "GLAP's SLAV does not collapse at higher ratios (>= 0.5x)",
                   "SLAV grows with the ratio",
                   _fmt({f"ratio {r}": v for r, v in sorted(glap.items())}, ".2e"),
                   len(glap) < 2 or hi >= lo * 0.5),
    ]


def _report_checks(results: SweepResults) -> List[ShapeCheck]:
    """The claims only the shape report judges."""
    fraction = _fraction_means(results)
    slav = _run_means(results, lambda r: r.slav)
    energy = _run_means(results, lambda r: r.migration_energy_j)
    checks = []
    for rival, expected in PAPER_OVERLOAD_REDUCTION.items():
        glap, other = fraction["GLAP"], fraction[rival]
        checks.append(
            ShapeCheck("shape", f"GLAP reduces overloaded PMs vs {rival}",
                       f"{expected:.0%}", f"{_reduction(glap, other):.0%}",
                       _fewer(glap, other, 0.0))
        )
    return checks + [
        ShapeCheck("shape", "SLAV ordering: GLAP lowest, GRMP/PABFD the worst pair",
                   "GLAP < EcoCloud < PABFD < GRMP", _fmt(slav, ".2e"),
                   _best(slav) == "GLAP" and _worst(slav) in _WORST_PAIR),
        ShapeCheck("shape", "GLAP has the lowest migration energy overhead",
                   "GLAP least, PABFD most (Figure 10)", _fmt(energy, ".0f"),
                   _best(energy) == "GLAP"),
    ]


_SWEEP_CHECKS = (_fig6_checks, _fig7_checks, _fig8_checks, _fig9_checks, _fig10_checks,
                 _table1_checks, _report_checks)


def check_shape(
    results: Optional[SweepResults] = None,
    convergence: Optional[Dict[int, Dict[str, list]]] = None,
) -> List[ShapeCheck]:
    """Evaluate the paper's claims: Fig. 5's on ``convergence`` (the
    :func:`~repro.experiments.figures.figure5_convergence` output), the
    rest on the sweep ``results``; the claims of an input not given are
    left out."""
    checks: List[ShapeCheck] = []
    if convergence is not None:
        checks += _convergence_checks(convergence)
    if results is not None:
        for exhibit_checks in _SWEEP_CHECKS:
            checks += exhibit_checks(results)
    return checks


def _where(exhibit: str) -> str:
    return {"table1": "Table I", "shape": "report"}.get(exhibit, f"Fig. {exhibit}")


def format_shape_report(checks: List[ShapeCheck]) -> str:
    lines = ["Paper-shape report", "=" * 70]
    for c in checks:
        status = "OK " if c.holds else "DIFF"
        lines.append(f"[{status}] {_where(c.exhibit)}: {c.claim}")
        lines.append(f"       paper:    {c.paper}")
        lines.append(f"       measured: {c.measured}")
    held = sum(1 for c in checks if c.holds)
    lines.append("=" * 70)
    lines.append(f"{held}/{len(checks)} qualitative claims hold at this scale")
    return "\n".join(lines)
