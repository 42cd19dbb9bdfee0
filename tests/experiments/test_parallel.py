"""Tests for repro.experiments.parallel — work units, pool, determinism.

The load-bearing guarantee: ``run_sweep(..., jobs=N)`` is bit-identical
to the sequential sweep for every N, so the parallel backend can never
change a paper number.
"""

import os
from dataclasses import replace

import numpy as np
import pytest

from repro.core.glap import GlapConfig
from repro.experiments.parallel import (
    JOBS_ENV_VAR,
    SweepExecutionError,
    _trace,
    resolve_jobs,
    run_sweep,
)
from repro.experiments.runner import (
    POLICY_NAMES,
    build_trace,
    make_policy,
    run_policy,
)
from repro.experiments.scenarios import Scenario
from repro.faults.plan import FaultPlan
from repro.metrics.collector import MetricsCollector
from repro.traces.google import GoogleTraceParams

SMALL = Scenario(
    n_pms=12,
    ratio=2,
    rounds=10,
    warmup_rounds=8,
    repetitions=2,
    trace_params=GoogleTraceParams(rounds_per_day=10),
)
#: ``SMALL``'s first repetition alone (same label, same seed).
ONE_REP = replace(SMALL, repetitions=1)

#: Policies cheap enough for a parity grid (GLAP's default config needs
#: warmup > 30 rounds; it gets its own small-config coverage below).
FAST_POLICIES = ("EcoCloud", "GRMP")

GLAP_KWARGS = {"GLAP": {"config": GlapConfig(aggregation_rounds=4)}}


def assert_sweeps_identical(a, b):
    assert a.runs.keys() == b.runs.keys()
    for key in a.runs:
        for ra, rb in zip(a.runs[key], b.runs[key]):
            assert ra.seed == rb.seed
            assert ra.slavo == rb.slavo
            assert ra.slalm == rb.slalm
            assert ra.total_migrations == rb.total_migrations
            assert ra.migration_energy_j == rb.migration_energy_j
            for name in MetricsCollector.SERIES:
                np.testing.assert_array_equal(
                    ra.series[name], rb.series[name]
                )


class TestResolveJobs:
    def test_default_is_sequential(self, monkeypatch):
        monkeypatch.delenv(JOBS_ENV_VAR, raising=False)
        assert resolve_jobs(None) == 1

    def test_env_var_used_when_unspecified(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV_VAR, "3")
        assert resolve_jobs(None) == 3

    def test_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV_VAR, "3")
        assert resolve_jobs(2) == 2

    def test_zero_means_cpu_count(self):
        assert resolve_jobs(0) == (os.cpu_count() or 1)

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="jobs must be >= 0"):
            resolve_jobs(-1)

    def test_invalid_env_rejected(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV_VAR, "many")
        with pytest.raises(ValueError, match=JOBS_ENV_VAR):
            resolve_jobs(None)

    def test_blank_env_ignored(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV_VAR, "  ")
        assert resolve_jobs(None) == 1


def _cached(scenario, seed):
    return _trace(scenario.n_vms, scenario.total_rounds, scenario.trace_params, seed)


class TestTraceCache:
    """The per-process trace cache: two slots, keyed by what a trace
    depends on."""

    def test_hit_returns_same_object(self):
        _trace.cache_clear()
        assert _cached(SMALL, 7) is _cached(SMALL, 7)
        info = _trace.cache_info()
        assert info.hits == 1 and info.misses == 1

    def test_distinct_seeds_distinct_traces(self):
        _trace.cache_clear()
        assert _cached(SMALL, 7) is not _cached(SMALL, 8)
        assert _trace.cache_info().misses == 2

    def test_lru_eviction(self):
        _trace.cache_clear()
        a = _cached(SMALL, 7)
        _cached(SMALL, 8)
        _cached(SMALL, 9)  # evicts seed 7: two slots
        assert _trace.cache_info().currsize == 2
        assert _cached(SMALL, 7) is not a  # regenerated
        assert _trace.cache_info().misses == 4

    def test_cached_trace_is_bit_identical_to_fresh(self):
        _trace.cache_clear()
        np.testing.assert_array_equal(
            _cached(SMALL, 7).data, build_trace(SMALL, 7).data
        )

    def test_four_policies_build_each_trace_once(self):
        _trace.cache_clear()
        run_sweep([SMALL], policies=POLICY_NAMES, policy_kwargs=GLAP_KWARGS, jobs=1)
        info = _trace.cache_info()
        assert info.misses == SMALL.repetitions
        assert info.hits == (len(POLICY_NAMES) - 1) * SMALL.repetitions

    def test_faulted_and_clean_variants_share_an_entry(self):
        _trace.cache_clear()
        faulted = SMALL.with_faults(FaultPlan.message_loss(0.3))
        run_sweep([SMALL], policies=("GRMP",), jobs=1)
        run_sweep([faulted], policies=("GRMP",), jobs=1)
        assert _trace.cache_info().misses == SMALL.repetitions


class TestSequentialSweep:
    def test_matches_direct_run_policy(self):
        # The unit decomposition must not change what each cell computes:
        # one fresh policy per seed, the trace built inside the run.
        sweep = run_sweep([SMALL], policies=FAST_POLICIES, jobs=1)
        for policy in FAST_POLICIES:
            direct = [
                run_policy(SMALL, make_policy(policy), SMALL.seed_of(rep))
                for rep in range(SMALL.repetitions)
            ]
            for swept, ref in zip(sweep.of(SMALL, policy), direct):
                assert swept.seed == ref.seed
                assert swept.slavo == ref.slavo
                assert swept.total_migrations == ref.total_migrations
                np.testing.assert_array_equal(
                    swept.series["active"], ref.series["active"]
                )

    def test_all_cells_filled_in_order(self):
        sweep = run_sweep([SMALL], policies=FAST_POLICIES, jobs=1)
        for policy in FAST_POLICIES:
            runs = sweep.of(SMALL, policy)
            assert len(runs) == SMALL.repetitions
            assert [r.seed for r in runs] == [
                SMALL.seed_of(rep) for rep in range(SMALL.repetitions)
            ]

    def test_policy_kwargs_reach_the_policy(self):
        sweep = run_sweep(
            [ONE_REP], policies=("GLAP",), policy_kwargs=GLAP_KWARGS, jobs=1,
        )
        assert len(sweep.of(ONE_REP, "GLAP")) == 1

    def test_zero_repetitions_rejected(self):
        # The scenario is the only repetition count, and it refuses zero.
        with pytest.raises(ValueError, match="repetitions"):
            replace(SMALL, repetitions=0)


class TestParallelParity:
    """jobs=2 must be bit-identical to jobs=1 — the tier-1 guarantee."""

    def test_pool_matches_sequential(self):
        seq = run_sweep(
            [SMALL], policies=("GLAP",) + FAST_POLICIES,
            policy_kwargs=GLAP_KWARGS, jobs=1,
        )
        par = run_sweep(
            [SMALL], policies=("GLAP",) + FAST_POLICIES,
            policy_kwargs=GLAP_KWARGS, jobs=2,
        )
        assert_sweeps_identical(seq, par)

    def test_env_var_drives_pool(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV_VAR, "2")
        par = run_sweep([ONE_REP], policies=FAST_POLICIES)
        seq = run_sweep([ONE_REP], policies=FAST_POLICIES, jobs=1)
        assert_sweeps_identical(seq, par)


class TestFailurePropagation:
    def test_worker_exception_identifies_unit(self):
        # A bogus constructor kwarg makes exactly one policy's units fail.
        with pytest.raises(SweepExecutionError) as excinfo:
            run_sweep(
                [ONE_REP], policies=FAST_POLICIES, jobs=2,
                policy_kwargs={"GRMP": {"bogus_option": 1}},
            )
        err = excinfo.value
        assert err.policy == "GRMP"
        assert err.scenario_label == SMALL.label()
        assert err.seed == SMALL.seed_of(0)
        assert "GRMP" in str(err) and SMALL.label() in str(err)
        assert err.__cause__ is not None

    def test_sequential_failure_names_the_cell(self):
        """jobs=1 failures carry the same (scenario, policy, seed)
        provenance as pool failures — the report must never lose the
        failing cell's label."""
        with pytest.raises(SweepExecutionError) as excinfo:
            run_sweep(
                [ONE_REP], policies=("GRMP",), jobs=1,
                policy_kwargs={"GRMP": {"bogus_option": 1}},
            )
        err = excinfo.value
        assert err.scenario_label == SMALL.label()
        assert err.policy == "GRMP"
        assert err.seed == SMALL.seed_of(0)
        assert SMALL.label() in str(err) and str(SMALL.seed_of(0)) in str(err)
        assert isinstance(err.__cause__, TypeError)
