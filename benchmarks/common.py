"""Shared machinery for the benchmark harness.

Every paper figure/table is regenerated from the same policy sweep, so
the sweep is computed once per pytest session and shared (module-level
cache); so is Fig. 5's convergence run.  The default scale is
laptop-sized; setting ``REPRO_BENCH_SCALE`` changes it, and this module
is the only one that reads it (benches import :data:`SCALE`):

* ``REPRO_BENCH_SCALE=quick`` — tiny smoke scale (~30 s total);
* unset / ``default``         — 40 PMs, ratios 2/3/4, 1 compressed day
  of warmup + 1 of evaluation, 2 repetitions (a few minutes total);
* ``REPRO_BENCH_SCALE=paper`` — the paper's grid (500/1000/2000 PMs,
  720+700 rounds, 20 reps).

The sweep runs through :func:`repro.experiments.parallel.run_sweep`, so
``REPRO_JOBS=N`` spreads the (scenario, policy, repetition) cells over
``N`` worker processes with bit-identical results — the paper grid drops
from an overnight job to roughly ``1/N`` of that on an ``N``-core box.
When ``REPRO_JOBS`` is unset, the quick scale uses 2 workers (so CI
exercises the pool path) and the other scales run sequentially.

Each session's sweep wall-clock is recorded in
``benchmarks/results/BENCH_sweep.json`` keyed by scale; EXPERIMENTS.md
records which scale produced the committed numbers.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

from repro.core.glap import GlapConfig
from repro.experiments.figures import figure5_convergence
from repro.experiments.parallel import SweepResults, resolve_jobs, run_sweep
from repro.experiments.runner import POLICY_NAMES
from repro.experiments.scenarios import Scenario, paper_grid, scaled_grid
from repro.traces.google import GoogleTraceParams

__all__ = [
    "SCALE",
    "SHAPE_CHECKS",
    "bench_scenarios",
    "bench_jobs",
    "get_convergence",
    "get_sweep",
    "once",
    "report",
]

#: Where benches persist their formatted tables (pytest captures stdout
#: of passing tests, so a durable artefact is written as well).
RESULTS_DIR = Path(__file__).parent / "results"

#: Machine-readable sweep timings, merged across scales/sessions.
SWEEP_TIMINGS_PATH = RESULTS_DIR / "BENCH_sweep.json"

#: The active scale: ``quick``, ``default`` or ``paper``.
SCALE = os.environ.get("REPRO_BENCH_SCALE", "default").lower()

#: Paper-shape assertions need statistical room; the "quick" smoke scale
#: (16 PMs, 1 repetition) only verifies that everything runs end to end.
SHAPE_CHECKS = SCALE != "quick"

_sweep_cache: Dict[Tuple, SweepResults] = {}
_convergence_cache: Dict[str, dict] = {}


def bench_scenarios() -> List[Scenario]:
    """The scenario list for the active benchmark scale."""
    if SCALE == "paper":
        return paper_grid()
    if SCALE == "quick":
        return scaled_grid(sizes=(16,), ratios=(2, 3), rounds=60,
                           warmup_rounds=60, repetitions=1)
    return scaled_grid(sizes=(40,), ratios=(2, 3, 4), rounds=180,
                       warmup_rounds=180, repetitions=2)


def bench_jobs() -> int:
    """Worker count for the bench sweep.

    ``REPRO_JOBS`` wins when set; otherwise the quick scale uses 2
    workers so CI exercises the process-pool path, and the heavier
    scales default to sequential (results are identical either way).
    """
    if os.environ.get("REPRO_JOBS", "").strip():
        return resolve_jobs(None)
    return 2 if SCALE == "quick" else 1


def _record_sweep_timing(scenarios: Sequence[Scenario], jobs: int,
                         wall_seconds: float) -> None:
    RESULTS_DIR.mkdir(exist_ok=True)
    timings: Dict[str, dict] = {}
    if SWEEP_TIMINGS_PATH.exists():
        try:
            timings = json.loads(SWEEP_TIMINGS_PATH.read_text())
        except (ValueError, OSError):
            timings = {}
    timings[SCALE] = {
        "jobs": jobs,
        "wall_seconds": round(wall_seconds, 2),
        "n_scenarios": len(scenarios),
        "repetitions": scenarios[0].repetitions if scenarios else 0,
        "policies": list(POLICY_NAMES),
    }
    SWEEP_TIMINGS_PATH.write_text(json.dumps(timings, indent=2) + "\n")


def get_sweep(policies: Sequence[str] = POLICY_NAMES) -> SweepResults:
    """The (cached) full sweep for the active scale.

    The first call per session runs the sweep (on :func:`bench_jobs`
    workers) and appends its wall-clock to ``BENCH_sweep.json``.
    """
    key = (SCALE, tuple(policies))
    if key not in _sweep_cache:
        scenarios = bench_scenarios()
        jobs = bench_jobs()
        start = time.perf_counter()
        _sweep_cache[key] = run_sweep(scenarios, policies=policies, jobs=jobs)
        _record_sweep_timing(scenarios, jobs, time.perf_counter() - start)
    return _sweep_cache[key]


def _convergence_cell() -> Tuple[Scenario, GlapConfig]:
    """Fig. 5's scenario and GLAP configuration for the active scale."""
    if SCALE == "paper":
        return Scenario(n_pms=1000, ratio=2, rounds=720, warmup_rounds=700), GlapConfig()
    if SCALE == "quick":
        return Scenario(
            n_pms=16, ratio=2, rounds=10, warmup_rounds=40,
            trace_params=GoogleTraceParams(rounds_per_day=40),
        ), GlapConfig(aggregation_rounds=10)
    return Scenario(
        n_pms=60, ratio=2, rounds=10, warmup_rounds=120,
        trace_params=GoogleTraceParams(rounds_per_day=120),
    ), GlapConfig(aggregation_rounds=30)


def get_convergence() -> dict:
    """The (cached) Fig. 5 data for the active scale: ratios 2/3/4."""
    if SCALE not in _convergence_cache:
        scenario, config = _convergence_cell()
        _convergence_cache[SCALE] = figure5_convergence(
            scenario, ratios=(2, 3, 4), glap_config=config
        )
    return _convergence_cache[SCALE]


def report(name: str, text: str) -> None:
    """Print a bench's formatted table and persist it under results/."""
    print()
    print(text)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}_{SCALE}.txt").write_text(text + "\n")


def once(benchmark, fn, *args, **kwargs):
    """Run ``fn`` exactly once under pytest-benchmark timing.

    Simulation sweeps are far too heavy for statistical repetition; one
    timed execution per session is the appropriate measurement.
    """
    return benchmark.pedantic(fn, args=args, kwargs=kwargs,
                              rounds=1, iterations=1)
