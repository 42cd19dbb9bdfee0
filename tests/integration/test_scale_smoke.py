"""Scale smoke: a short GLAP eval at 50k PMs / 200k VMs.

The columnar core's reason to exist — §V's scalability claim — asserted
as a budgeted run: the whole thing (trace synthesis, overlay bootstrap,
warmup, eval, the BFD baseline pack over all 200k VMs) must fit a
wall-clock and peak-RSS envelope on one box, with the invariant
observer live on every round and reporting zero violations.

Slow-marked: runs in the nightly `full` CI job (which takes the whole
suite without ``-m "not slow"``), not in tier-1.  The wall budget is
~5x a warm local run (25-33 s / 413 MB peak RSS at PR 21, three runs:
benchmarks/results/pr21_trace_blocks_runs.md) so the gate catches a
several-fold regression — an accidental O(n²) in the round path or a
per-object copy of columnar state — without flaking on slower runners;
the RSS budget is an order-of-magnitude guard (the process may carry
earlier tests' high-water).
"""

import resource
import time

import pytest

from repro.core.glap import GlapConfig
from repro.experiments.runner import make_policy, run_policy
from repro.experiments.scenarios import Scenario
from repro.traces.google import GoogleTraceParams

N_PMS = 50_000
N_VMS = 200_000
WALL_BUDGET_S = 150.0
PEAK_RSS_BUDGET_MB = 4096.0

SCENARIO = Scenario(
    n_pms=N_PMS,
    ratio=N_VMS // N_PMS,
    rounds=2,
    warmup_rounds=2,
    repetitions=1,
    trace_params=GoogleTraceParams(rounds_per_day=4),
)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@pytest.mark.slow
def test_glap_50k_pms_within_budgets():
    t0 = time.perf_counter()
    # check_invariants=True puts the InvariantObserver on every round;
    # any violation raises and fails the test — that *is* the
    # zero-violations assertion.
    result = run_policy(
        SCENARIO,
        make_policy("GLAP", config=GlapConfig(aggregation_rounds=1)),
        SCENARIO.seed_of(0),
        check_invariants=True,
    )
    wall_s = time.perf_counter() - t0
    peak_rss_mb = _peak_rss_mb()

    assert wall_s < WALL_BUDGET_S, (
        f"50k-PM GLAP smoke took {wall_s:.0f}s (budget {WALL_BUDGET_S:.0f}s) — "
        "the columnar hot path has regressed"
    )
    assert peak_rss_mb < PEAK_RSS_BUDGET_MB, (
        f"peak RSS {peak_rss_mb:.0f} MB (budget {PEAK_RSS_BUDGET_MB:.0f} MB) — "
        "per-object state is leaking back into the columnar core"
    )
    # The run did real consolidation work at scale.
    assert 0 < result.final_active < N_PMS
    assert result.total_migrations > 0
    assert result.bfd_baseline_pms > 0
