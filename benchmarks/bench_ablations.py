"""Ablation benches for GLAP's design choices (DESIGN.md §6).

Not paper figures — these quantify *why* GLAP works by switching off one
ingredient at a time:

* **Q_in guard off**: accept on raw capacity alone.  The paper's central
  claim is that the learned admission test prevents future overloads;
  removing it must increase overloads.
* **Cyclon vs static overlay**: the static overlay cannot reconfigure
  around switched-off PMs (the Figure 1 pathology).
* **Learning (+aggregation) depth**: fewer warmup rounds → less accurate
  Q-values.
"""

import numpy as np

from repro.core.glap import GlapConfig
from repro.experiments.runner import make_policy, run_policy
from repro.experiments.scenarios import Scenario
from repro.traces.google import GoogleTraceParams

from common import SCALE, once

if SCALE == "quick":
    _SCENARIO = Scenario(
        n_pms=16, ratio=3, rounds=60, warmup_rounds=60, repetitions=1,
        trace_params=GoogleTraceParams(rounds_per_day=60),
    )
    _REPS = 1
else:
    _SCENARIO = Scenario(
        n_pms=40, ratio=3, rounds=180, warmup_rounds=180, repetitions=2,
        trace_params=GoogleTraceParams(rounds_per_day=180),
    )
    _REPS = 2


def _mean_metric(config: GlapConfig, metric: str) -> float:
    values = []
    for rep in range(_REPS):
        result = run_policy(
            _SCENARIO, make_policy("GLAP", config=config), seed=_SCENARIO.seed_of(rep)
        )
        values.append(result.mean_of(metric) if metric in result.series
                      else getattr(result, metric))
    return float(np.mean(values))


def test_ablation_q_in_guard(benchmark):
    """Disabling the learned admission test must hurt overload."""

    def run_both():
        with_guard = _mean_metric(GlapConfig(use_q_in_guard=True), "overloaded")
        without = _mean_metric(GlapConfig(use_q_in_guard=False), "overloaded")
        return with_guard, without

    with_guard, without = once(benchmark, run_both)
    print(f"\nmean overloaded PMs: guard on={with_guard:.2f}, off={without:.2f}")
    assert without > with_guard, (
        "removing the Q_in guard did not increase overloads — the "
        "threshold-free admission test is doing nothing"
    )


def test_ablation_overlay(benchmark):
    """Cyclon's self-healing matters once PMs start switching off."""

    def run_both():
        cyclon = _mean_metric(GlapConfig(overlay="cyclon"), "total_migrations")
        static = _mean_metric(GlapConfig(overlay="static"), "total_migrations")
        return cyclon, static

    cyclon, static = once(benchmark, run_both)
    print(f"\ntotal migrations: cyclon={cyclon:.1f}, static={static:.1f}")
    # Both must work; the static overlay is permitted to be no better.
    assert cyclon > 0 and static >= 0


def test_ablation_learning_depth(benchmark):
    """More learning iterations per round -> more accurate Q-tables.

    Proxy check: a deeper-trained GLAP should not be *worse* on SLAV than
    a barely-trained one (k=1, short learning window)."""

    def run_both():
        shallow_cfg = GlapConfig(
            learning_iterations_per_round=1,
            learning_period=8,
            aggregation_rounds=30,
        )
        deep_cfg = GlapConfig(
            learning_iterations_per_round=30,
            learning_period=1,
            aggregation_rounds=30,
        )
        shallow = _mean_metric(shallow_cfg, "slav")
        deep = _mean_metric(deep_cfg, "slav")
        return shallow, deep

    shallow, deep = once(benchmark, run_both)
    print(f"\nSLAV: shallow={shallow:.3g}, deep={deep:.3g}")
    assert deep <= shallow * 2.0, (
        "deep training dramatically worse than shallow — learning is unstable"
    )
