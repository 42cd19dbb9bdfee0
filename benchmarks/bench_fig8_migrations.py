"""Figure 8 — number of migrations per round (median, p10, p90).

Paper shape: "GLAP imposes the fewest number of migrations while PABFD
considerably incurs the highest" (23% / 37% / 70% fewer than EcoCloud /
GRMP / PABFD); total migrations grow with the workload ratio.
"""

import numpy as np

from repro.experiments.figures import figure8_migrations, format_figure8

from common import SHAPE_CHECKS, get_sweep, once, report


def test_fig8_migrations(benchmark):
    sweep = get_sweep()
    rows = once(benchmark, figure8_migrations, sweep)
    report("fig8_migrations", format_figure8(rows))

    if not SHAPE_CHECKS:
        return  # smoke scale: no statistical shape assertions

    totals = {}
    for policy in sweep.policies:
        totals[policy] = float(
            np.mean(
                [
                    run.total_migrations
                    for scenario in sweep.scenarios
                    for run in sweep.of(scenario, policy)
                ]
            )
        )
    print("mean total migrations:", {k: round(v, 1) for k, v in totals.items()})

    # GLAP fewest migrations.
    assert min(totals, key=totals.get) == "GLAP", totals

    # "With increasing the workload ratio, the total number of
    # migrations increases" — summed over the policies (per-policy
    # monotonicity needs paper scale to emerge from the noise).
    ratios = sorted({s.ratio for s in sweep.scenarios})
    if len(ratios) >= 2:
        by_ratio = []
        for ratio in ratios:
            runs = [
                run.total_migrations
                for scenario in sweep.scenarios
                if scenario.ratio == ratio
                for policy in sweep.policies
                for run in sweep.of(scenario, policy)
            ]
            by_ratio.append(np.mean(runs))
        assert by_ratio[-1] > by_ratio[0], (
            f"overall migrations should grow with ratio, got {by_ratio}"
        )
