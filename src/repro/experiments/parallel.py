"""Parallel sweep execution.

The paper's evaluation grid is embarrassingly parallel: every
(scenario, policy, repetition) cell is an independent, fully-seeded
simulation.  This module decomposes a sweep into exactly those work
units and runs them either in-process (``jobs=1``) or on a
``ProcessPoolExecutor`` (``jobs>1``; ``jobs=0`` means one worker per
CPU).  ``REPRO_JOBS`` sets the default when no ``jobs`` argument is
given.

Determinism: each unit derives all its randomness from
``RngStreams(scenario.seed_of(rep))`` and results are merged by unit
index, never by completion order — so a parallel sweep is bit-identical
to the sequential one (the tier-1 parity test asserts it).

Trace sharing: the four policies of a cell face the *same* (scenario,
seed) workload by construction, so generating it four times is pure
waste.  Units are ordered repetition-major and every process — the
caller's own at ``jobs=1``, each pool worker otherwise — memoizes its
last two traces (:func:`_trace`), keyed by exactly what the trace
depends on, bounding regeneration at one per (cell, process).

Failures: any unit exception — sequential or pooled — aborts the sweep
with a :class:`SweepExecutionError` naming the failing (scenario,
policy, seed); with a pool, pending units are cancelled.  The original
exception rides along as ``__cause__``.

Benchmarking: ``bench_out`` writes a schema-versioned ``kind="sweep"``
summary (see :mod:`repro.obs.summary`) recording per-cell wall time and
per-cell deterministic metrics.  Timings are collected out-of-band —
they never enter :class:`~repro.metrics.report.RunResult`, so sweeps
stay bit-identical with and without benchmarking.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.checkpoint import load_checkpoint
from repro.experiments.runner import (
    POLICY_NAMES,
    make_policy,
    resume_policy,
    run_policy,
)
from repro.experiments.scenarios import Scenario
from repro.metrics.report import RunResult
from repro.obs.summary import METRIC_FIELDS, sweep_summary, write_summary
from repro.traces.base import TraceSource
from repro.traces.google import GoogleLikeTraceGenerator, GoogleTraceParams
from repro.util.rng import RngStreams

__all__ = [
    "SweepResults",
    "SweepExecutionError",
    "resolve_jobs",
    "run_sweep",
]

#: Environment variable consulted when ``jobs`` is not given explicitly.
JOBS_ENV_VAR = "REPRO_JOBS"


@dataclass
class SweepResults:
    """All repetitions of all (scenario, policy) combinations."""

    runs: Dict[Tuple[str, str], List[RunResult]] = field(default_factory=dict)
    scenarios: List[Scenario] = field(default_factory=list)
    policies: Tuple[str, ...] = POLICY_NAMES

    def of(self, scenario: Scenario, policy: str) -> List[RunResult]:
        key = (scenario.label(), policy)
        try:
            return self.runs[key]
        except KeyError:
            raise KeyError(
                f"sweep has no runs for {key}; available: {sorted(self.runs)}"
            ) from None


class SweepExecutionError(RuntimeError):
    """A sweep work unit failed; identifies the failing cell."""

    def __init__(self, scenario_label: str, policy: str, seed: int) -> None:
        self.scenario_label = scenario_label
        self.policy = policy
        self.seed = seed
        super().__init__(
            f"sweep unit failed: scenario={scenario_label} policy={policy} "
            f"seed={seed} (see the chained exception for the cause)"
        )


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Resolve a ``jobs`` request to a concrete worker count.

    ``None`` falls back to ``$REPRO_JOBS`` (and to 1 when that is unset);
    ``0`` means one worker per CPU; negative values are rejected.
    """
    if jobs is None:
        env = os.environ.get(JOBS_ENV_VAR)
        if env is None or not env.strip():
            return 1
        try:
            jobs = int(env)
        except ValueError:
            raise ValueError(
                f"${JOBS_ENV_VAR} must be an integer, got {env!r}"
            ) from None
    jobs = int(jobs)
    if jobs < 0:
        raise ValueError(f"jobs must be >= 0, got {jobs}")
    if jobs == 0:
        return os.cpu_count() or 1
    return jobs


# -- worker side -------------------------------------------------------------

@lru_cache(maxsize=2)
def _trace(
    n_vms: int, total_rounds: int, params: GoogleTraceParams, seed: int
) -> TraceSource:
    """The (scenario, seed) trace, memoized per process by everything it
    depends on — and nothing else, so the four policies of a cell and a
    scenario's faulted and fault-free variants share one entry.  Two
    slots: paper-scale traces run to hundreds of MB, and units arrive
    repetition-major.  Same draws as
    :func:`~repro.experiments.runner.build_trace`.
    """
    return GoogleLikeTraceGenerator(params).generate(
        n_vms, total_rounds, RngStreams(seed).get("trace")
    )


def _run_unit(
    scenario: Scenario,
    policy_name: str,
    seed: int,
    policy_kwargs: Optional[dict],
    checkpoint_every: Optional[int] = None,
    result_path: Optional[Path] = None,
    checkpoint_path: Optional[Path] = None,
    resume_from: Optional[Path] = None,
) -> Tuple[RunResult, float]:
    """Execute one (scenario, policy, repetition) unit, in this process
    (``jobs=1``) or as the pool target.

    Returns ``(result, elapsed_s)``.  The wall time travels beside the
    result, never inside it — ``RunResult`` stays deterministic so the
    golden digests are unaffected by benchmarking.

    With a ``result_path``, the finished result is persisted (atomic
    write) *in the worker*, so a sweep killed mid-flight keeps every
    completed unit.  ``checkpoint_path``/``checkpoint_every`` route
    through the runner's checkpoint cadence for crash-resumable cells;
    ``resume_from`` continues a partial cell from its checkpoint instead
    of starting over.
    """
    from repro.experiments.store import save_results  # avoid import cycle

    params = scenario.trace_params
    trace = _trace(
        scenario.n_vms,
        scenario.total_rounds,
        params if params is not None else GoogleTraceParams(),
        seed,
    )
    policy = make_policy(policy_name, **(policy_kwargs or {}))
    start = time.perf_counter()
    if resume_from is not None:
        result = resume_policy(
            resume_from,
            policy,
            trace=trace,
            checkpoint_every=checkpoint_every,
            checkpoint_to=checkpoint_path,
        )
    else:
        result = run_policy(
            scenario,
            policy,
            seed,
            trace=trace,
            checkpoint_every=checkpoint_every,
            checkpoint_path=checkpoint_path,
        )
    elapsed = time.perf_counter() - start
    if result_path is not None:
        save_results([result], result_path)
    return result, elapsed


# -- driver side -------------------------------------------------------------

def _unit_paths(
    store: Path, label: str, policy: str, seed: int
) -> Tuple[Path, Path]:
    """(result, checkpoint) paths of one sweep unit in the store."""
    stem = f"{label}__{policy}__{seed}"
    return store / f"{stem}.result.json", store / f"{stem}.ckpt.json"


def _write_sweep_bench(
    out: SweepResults,
    scenarios: Sequence[Scenario],
    policies: Sequence[str],
    cell_seconds: Dict[Tuple[str, str], float],
    cell_calls: Dict[Tuple[str, str], int],
    wall_s: float,
    jobs: int,
    bench_out: Union[str, Path],
) -> None:
    """Assemble and write the ``kind="sweep"`` benchmark summary."""
    cell_timings = {
        f"{label}/{policy}": {
            "total_s": cell_seconds[(label, policy)],
            "calls": cell_calls[(label, policy)],
        }
        for (label, policy) in sorted(cell_seconds)
    }
    cell_metrics: Dict[str, float] = {}
    for (label, policy), results in sorted(out.runs.items()):
        reps = len(results)
        for name in METRIC_FIELDS:
            mean = sum(float(getattr(r, name)) for r in results) / reps
            cell_metrics[f"{label}/{policy}/{name}"] = mean
    context = {
        "scenarios": [s.label() for s in scenarios],
        "policies": list(policies),
        "jobs": jobs,
    }
    write_summary(
        sweep_summary(context, cell_timings, cell_metrics, wall_s=wall_s),
        bench_out,
    )


def run_sweep(
    scenarios: Sequence[Scenario],
    policies: Sequence[str] = POLICY_NAMES,
    jobs: Optional[int] = None,
    policy_kwargs: Optional[Dict[str, dict]] = None,
    bench_out: Optional[Union[str, Path]] = None,
    store_dir: Optional[Union[str, Path]] = None,
    checkpoint_every: Optional[int] = None,
    resume: bool = False,
) -> SweepResults:
    """Run every (scenario, policy) with the scenario's repetitions.

    ``jobs`` selects the execution backend (see :func:`resolve_jobs`);
    ``policy_kwargs`` optionally maps a policy name to constructor
    kwargs.  Results are identical for every ``jobs`` value.

    ``bench_out`` additionally writes a ``kind="sweep"`` benchmark
    summary (per-cell wall time + per-cell metric means) to the given
    path; it changes no result bit.  A cell's ``total_s`` is the time
    inside its units' ``run_policy`` / ``resume_policy`` calls — the
    trace build and the result write are outside it — and means the
    same thing for every ``jobs``.

    ``store_dir`` persists each unit's result to
    ``<label>__<policy>__<seed>.result.json`` *as it completes* (in the
    worker, atomically); ``checkpoint_every`` additionally checkpoints
    each in-flight unit every N evaluation rounds to a sibling
    ``.ckpt.json``.  ``resume=True`` (requires ``store_dir``) then turns
    a killed sweep into an incremental one: completed units are loaded
    from the store instead of re-run, partial units continue from their
    latest checkpoint, and only missing units start fresh — the merged
    results are equal to a from-scratch sweep (JSON round-trips floats
    exactly).  Every partial unit's checkpoint is validated before the
    first unit runs: a file ``load_checkpoint`` refuses raises its
    ``ValueError`` (naming the file) from here, not a
    :class:`SweepExecutionError`.
    """
    from repro.experiments.store import load_results  # import cycle

    if resume and store_dir is None:
        raise ValueError("resume=True requires store_dir")
    if checkpoint_every is not None:
        if store_dir is None:
            raise ValueError("checkpoint_every requires store_dir")
        if checkpoint_every <= 0:
            raise ValueError(
                f"checkpoint_every must be > 0, got {checkpoint_every}"
            )
    store = Path(store_dir) if store_dir is not None else None
    if store is not None:
        store.mkdir(parents=True, exist_ok=True)

    jobs = resolve_jobs(jobs)
    kwargs_of = policy_kwargs or {}
    out = SweepResults(scenarios=list(scenarios), policies=tuple(policies))
    sweep_start = time.perf_counter()
    cell_seconds: Dict[Tuple[str, str], float] = {}
    cell_calls: Dict[Tuple[str, str], int] = {}

    units: List[Tuple[Scenario, str, int]] = []
    for scenario in scenarios:
        reps = scenario.repetitions
        for policy in policies:
            out.runs[(scenario.label(), policy)] = [None] * reps  # type: ignore[list-item]
            cell_seconds[(scenario.label(), policy)] = 0.0
            cell_calls[(scenario.label(), policy)] = 0
        # Repetition-major so consecutive units share one trace.
        for rep in range(reps):
            for policy in policies:
                units.append((scenario, policy, rep))

    def unit_args(scenario: Scenario, policy: str, rep: int) -> tuple:
        """The :func:`_run_unit` arguments of one unit."""
        seed = scenario.seed_of(rep)
        args = (scenario, policy, seed, kwargs_of.get(policy), checkpoint_every)
        if store is None:
            return args
        result_path, ckpt = _unit_paths(store, scenario.label(), policy, seed)
        return args + (
            result_path,
            ckpt if checkpoint_every is not None else None,
            ckpt if resume and ckpt.exists() else None,
        )

    def record(
        unit: Tuple[Scenario, str, int],
        outcome: Callable[[], Tuple[RunResult, float]],
    ) -> None:
        """File one finished unit — in-process or pooled alike."""
        scenario, policy, rep = unit
        try:
            result, elapsed = outcome()
        except Exception as exc:
            raise SweepExecutionError(
                scenario.label(), policy, scenario.seed_of(rep)
            ) from exc
        key = (scenario.label(), policy)
        out.runs[key][rep] = result
        cell_seconds[key] += elapsed
        cell_calls[key] += 1

    pending: List[Tuple[Scenario, str, int]] = []
    for scenario, policy, rep in units:
        seed = scenario.seed_of(rep)
        if store is not None and resume:
            result_path, ckpt = _unit_paths(store, scenario.label(), policy, seed)
            if result_path.exists():
                out.runs[(scenario.label(), policy)][rep] = load_results(
                    result_path
                )[0]
                continue
            if ckpt.exists():
                # A refused file stops the sweep here, before any unit
                # runs, with the loader's own ``ValueError``.
                load_checkpoint(ckpt)
        pending.append((scenario, policy, rep))

    if jobs == 1:
        for unit in pending:
            record(unit, lambda: _run_unit(*unit_args(*unit)))
    else:
        pool = ProcessPoolExecutor(max_workers=jobs)
        try:
            futures = {
                pool.submit(_run_unit, *unit_args(*unit)): unit for unit in pending
            }
            for fut in as_completed(futures):
                record(futures[fut], fut.result)
        finally:
            pool.shutdown(wait=True, cancel_futures=True)

    if bench_out is not None:
        _write_sweep_bench(
            out, scenarios, policies, cell_seconds, cell_calls,
            time.perf_counter() - sweep_start, jobs, bench_out,
        )
    return out
