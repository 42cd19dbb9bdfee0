"""Figure drivers — one function per figure of the paper's section V.

Every driver returns plain data structures (dicts / lists of rows) plus
a ``format_*`` helper that renders the same rows the paper plots, so the
benchmark harness can print paper-comparable output without any plotting
dependency.

Because a full sweep is expensive, drivers accept pre-computed results
via the ``results`` parameter: run
:func:`~repro.experiments.parallel.run_sweep` once and feed every figure
from it.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.convergence import mean_pairwise_cosine
from repro.core.glap import GlapPolicy
from repro.experiments.parallel import SweepResults
from repro.experiments.runner import run_round, wire_run
from repro.experiments.scenarios import Scenario
from repro.metrics.report import RunResult, aggregate_runs
from repro.util.stats import percentile_summary

__all__ = [
    "figure5_convergence",
    "figure6_overload_fraction",
    "figure7_overloaded_pms",
    "figure8_migrations",
    "figure9_cumulative_migrations",
    "figure10_energy_overhead",
]


def _format_rows(header: Sequence[str], rows: Sequence[Sequence], title: str) -> str:
    widths = [
        max(len(str(h)), max((len(str(r[i])) for r in rows), default=0))
        for i, h in enumerate(header)
    ]
    lines = [title, "  ".join(str(h).ljust(w) for h, w in zip(header, widths))]
    lines.append("  ".join("-" * w for w in widths))
    for r in rows:
        lines.append("  ".join(str(c).ljust(w) for c, w in zip(r, widths)))
    return "\n".join(lines)


def _cells(results: SweepResults) -> Iterator[Tuple[dict, str, List[RunResult]]]:
    """Each (scenario, policy) cell of a sweep, scenario-major: the row
    key every figure and table starts from, the policy and its runs."""
    for scenario in results.scenarios:
        key = {"scenario": scenario.label(), "n_pms": scenario.n_pms, "ratio": scenario.ratio}
        for policy in results.policies:
            yield key, policy, results.of(scenario, policy)


# ---------------------------------------------------------------------------
# Figure 5 — Q-value convergence (WOG = learning only, WG = + aggregation)
# ---------------------------------------------------------------------------

def figure5_convergence(
    scenario: Scenario,
    ratios: Sequence[int] = (2, 3, 4),
    sample_every: int = 5,
    max_models: int = 100,
    seed: Optional[int] = None,
    glap_config=None,
) -> Dict[int, Dict[str, list]]:
    """Cosine similarity of PM Q-values per cycle, for each VM:PM ratio.

    Reproduces Figure 5: similarity stalls well below 1 during the
    learning phase (WOG) and converges rapidly once the aggregation
    phase (WG) starts.  Returns, per ratio::

        {"round": [...], "similarity": [...], "phase": ["learn"|"aggregate", ...]}

    ``max_models`` caps how many PM models enter the similarity estimate
    (a random-but-deterministic subset) to keep the metric cheap.  The
    warm-up runs through the runner's own set-up and round body, so the
    scenario's ``faults`` and ``check_invariants`` apply.
    """
    from dataclasses import replace

    out: Dict[int, Dict[str, list]] = {}
    for ratio in ratios:
        sc = replace(scenario, ratio=ratio)
        run_seed = sc.seed_of(0) if seed is None else seed
        policy = GlapPolicy(glap_config)
        env = wire_run(sc, policy, run_seed)
        subset_rng = np.random.default_rng(run_seed)
        data: Dict[str, list] = {"round": [], "similarity": [], "phase": []}
        for r in range(sc.warmup_rounds):
            run_round(env)
            if r % sample_every == 0 or r == sc.warmup_rounds - 1:
                models = list(policy.models.values())
                if len(models) > max_models:
                    idx = subset_rng.choice(len(models), size=max_models, replace=False)
                    models = [models[i] for i in idx]
                data["round"].append(r)
                data["similarity"].append(
                    mean_pairwise_cosine(models, rng=subset_rng, max_pairs=300)
                )
                data["phase"].append(policy.phase.value)
        out[ratio] = data
    return out


def format_figure5(data: Dict[int, Dict[str, list]]) -> str:
    rows = []
    for ratio, series in sorted(data.items()):
        learn = [s for s, p in zip(series["similarity"], series["phase"]) if p == "learn"]
        agg = [s for s, p in zip(series["similarity"], series["phase"]) if p == "aggregate"]
        rows.append(
            [
                ratio,
                f"{learn[-1]:.3f}" if learn else "n/a",
                f"{agg[-1]:.3f}" if agg else "n/a",
            ]
        )
    return _format_rows(
        ["ratio", "end-of-learning (WOG)", "end-of-aggregation (WG)"],
        rows,
        "Figure 5 — Q-value cosine similarity across PMs",
    )


# ---------------------------------------------------------------------------
# Figure 6 — fraction of overloaded / active PMs (+ BFD baseline packing)
# ---------------------------------------------------------------------------

def figure6_overload_fraction(results: SweepResults) -> List[dict]:
    """Rows: per scenario x policy, mean active PMs, mean overloaded PMs,
    overloaded/active fraction, and the BFD baseline PM count."""
    return [
        {
            **key,
            "policy": policy,
            "mean_active": float(np.mean([r.mean_of("active") for r in runs])),
            "mean_overloaded": float(np.mean([r.mean_of("overloaded") for r in runs])),
            "overloaded_fraction": float(
                np.mean([r.mean_of("overloaded_fraction") for r in runs])
            ),
            "bfd_baseline": float(np.mean([r.bfd_baseline_pms for r in runs])),
        }
        for key, policy, runs in _cells(results)
    ]


def format_figure6(rows: List[dict]) -> str:
    table = [
        [
            r["scenario"],
            r["policy"],
            f"{r['mean_active']:.1f}",
            f"{r['mean_overloaded']:.2f}",
            f"{100 * r['overloaded_fraction']:.1f}%",
            f"{r['bfd_baseline']:.1f}",
        ]
        for r in rows
    ]
    return _format_rows(
        ["scenario", "policy", "active", "overloaded", "overl/active", "BFD baseline"],
        table,
        "Figure 6 — fraction of overloaded / active PMs",
    )


# ---------------------------------------------------------------------------
# Figures 7, 8 — per-round medians with p10/p90 bars
# ---------------------------------------------------------------------------

def _per_round_percentiles(
    results: SweepResults, series: str
) -> List[dict]:
    rows = []
    for key, policy, runs in _cells(results):
        summary = aggregate_runs(runs, series, per_round=True).summary
        rows.append(
            {
                **key,
                "policy": policy,
                "median": summary.median,
                "p10": summary.p10,
                "p90": summary.p90,
                "mean": summary.mean,
            }
        )
    return rows


def figure7_overloaded_pms(results: SweepResults) -> List[dict]:
    """Per-round overloaded-PM counts: median / p10 / p90 (Figure 7)."""
    return _per_round_percentiles(results, "overloaded")


def figure8_migrations(results: SweepResults) -> List[dict]:
    """Per-round migration counts: median / p10 / p90 (Figure 8)."""
    return _per_round_percentiles(results, "migrations")


def format_percentile_rows(rows: List[dict], title: str) -> str:
    table = [
        [
            r["scenario"],
            r["policy"],
            f"{r['median']:.2f}",
            f"{r['p10']:.2f}",
            f"{r['p90']:.2f}",
            f"{r['mean']:.2f}",
        ]
        for r in rows
    ]
    return _format_rows(
        ["scenario", "policy", "median", "p10", "p90", "mean"], table, title
    )


def format_figure7(rows: List[dict]) -> str:
    return format_percentile_rows(rows, "Figure 7 — overloaded PMs per round")


def format_figure8(rows: List[dict]) -> str:
    return format_percentile_rows(rows, "Figure 8 — migrations per round")


# ---------------------------------------------------------------------------
# Figure 9 — cumulative migrations over time
# ---------------------------------------------------------------------------

def figure9_cumulative_migrations(
    results: SweepResults, n_pms: Optional[int] = None
) -> Dict[Tuple[int, str], np.ndarray]:
    """Mean cumulative-migration curve per (ratio, policy).

    The paper shows 1000 nodes; pass ``n_pms`` to select a size (default:
    the largest size in the sweep).
    """
    sizes = sorted({s.n_pms for s in results.scenarios})
    target = n_pms if n_pms is not None else sizes[-1]
    out: Dict[Tuple[int, str], np.ndarray] = {}
    for key, policy, runs in _cells(results):
        if key["n_pms"] == target:
            curves = np.vstack([r.series["cumulative_migrations"] for r in runs])
            out[(key["ratio"], policy)] = curves.mean(axis=0)
    if not out:
        raise ValueError(f"no scenarios with n_pms={target} in sweep")
    return out


def format_figure9(curves: Dict[Tuple[int, str], np.ndarray], points: int = 6) -> str:
    rows = []
    for (ratio, policy), curve in sorted(curves.items()):
        idx = np.linspace(0, len(curve) - 1, num=min(points, len(curve)), dtype=int)
        samples = "  ".join(f"{curve[i]:8.1f}" for i in idx)
        rows.append([ratio, policy, samples])
    return _format_rows(
        ["ratio", "policy", "cumulative migrations (evenly sampled rounds)"],
        rows,
        "Figure 9 — cumulative migrations over time",
    )


# ---------------------------------------------------------------------------
# Figure 10 — energy overhead of migrations
# ---------------------------------------------------------------------------

def figure10_energy_overhead(results: SweepResults) -> List[dict]:
    """Total migration energy (J) per scenario x policy: median/p10/p90
    across repetitions."""
    rows = []
    for key, policy, runs in _cells(results):
        summary = percentile_summary([r.migration_energy_j for r in runs])
        rows.append(
            {
                **key,
                "policy": policy,
                "median_j": summary.median,
                "p10_j": summary.p10,
                "p90_j": summary.p90,
            }
        )
    return rows


def format_figure10(rows: List[dict]) -> str:
    table = [
        [
            r["scenario"],
            r["policy"],
            f"{r['median_j']:.0f}",
            f"{r['p10_j']:.0f}",
            f"{r['p90_j']:.0f}",
        ]
        for r in rows
    ]
    return _format_rows(
        ["scenario", "policy", "median J", "p10 J", "p90 J"],
        table,
        "Figure 10 — energy overhead of migrations",
    )
