"""Tests for repro.experiments.runner — fairness and run mechanics."""

import numpy as np
import pytest

from repro.experiments.runner import (
    POLICY_NAMES,
    build_simulation,
    build_trace,
    make_policy,
    run_policy,
)
from repro.experiments.scenarios import Scenario
from repro.traces.google import GoogleTraceParams

SMALL = Scenario(
    n_pms=12,
    ratio=2,
    rounds=15,
    warmup_rounds=12,
    repetitions=2,
    trace_params=GoogleTraceParams(rounds_per_day=15),
)


def small_glap_kwargs():
    from repro.core.glap import GlapConfig

    return {"config": GlapConfig(aggregation_rounds=4)}


class TestMakePolicy:
    def test_all_paper_policies_constructible(self):
        for name in POLICY_NAMES:
            policy = make_policy(name)
            assert policy.name == name

    def test_case_insensitive(self):
        assert make_policy("glap").name == "GLAP"
        assert make_policy("ECOCLOUD").name == "EcoCloud"

    def test_unknown_rejected(self):
        with pytest.raises(ValueError, match="unknown policy"):
            make_policy("FancyNew")


class TestBuildSimulation:
    def test_same_seed_same_workload(self):
        dc_a, _, _ = build_simulation(SMALL, 7)
        dc_b, _, _ = build_simulation(SMALL, 7)
        np.testing.assert_array_equal(dc_a.placement(), dc_b.placement())
        np.testing.assert_array_equal(
            dc_a.trace.demands_at(3), dc_b.trace.demands_at(3)
        )

    def test_different_seed_different_workload(self):
        dc_a, _, _ = build_simulation(SMALL, 7)
        dc_b, _, _ = build_simulation(SMALL, 8)
        assert not np.array_equal(dc_a.placement(), dc_b.placement())

    def test_environment_independent_of_policy(self):
        # The fairness guarantee: trace/placement never depend on which
        # policy will run.
        dc_a, sim_a, streams_a = build_simulation(SMALL, 7)
        make_policy("GRMP").attach(dc_a, sim_a, streams_a, SMALL.warmup_rounds)
        dc_b, _, _ = build_simulation(SMALL, 7)
        np.testing.assert_array_equal(dc_a.placement(), dc_b.placement())

    def test_sizes(self):
        dc, sim, _ = build_simulation(SMALL, 1)
        assert dc.n_pms == 12 and dc.n_vms == 24
        assert len(sim.nodes) == 12


class TestTraceSplit:
    """build_trace + build_simulation(trace=...) == build_simulation alone.

    This equivalence is what makes sharing one trace across the four
    policies of a sweep cell (and across worker processes) sound.
    """

    def test_prebuilt_trace_is_identical(self):
        trace = build_trace(SMALL, 7)
        dc_whole, _, _ = build_simulation(SMALL, 7)
        np.testing.assert_array_equal(
            trace.demands_at(4), dc_whole.trace.demands_at(4)
        )

    def test_placement_unaffected_by_prebuilt_trace(self):
        # Named rng streams are independent: consuming (or skipping) the
        # "trace" stream must not shift the "placement" stream.
        dc_split, _, _ = build_simulation(SMALL, 7, trace=build_trace(SMALL, 7))
        dc_whole, _, _ = build_simulation(SMALL, 7)
        np.testing.assert_array_equal(dc_split.placement(), dc_whole.placement())

    def test_run_policy_with_shared_trace_is_identical(self):
        trace = build_trace(SMALL, 5)
        with_trace = run_policy(SMALL, make_policy("GRMP"), seed=5, trace=trace)
        without = run_policy(SMALL, make_policy("GRMP"), seed=5)
        assert with_trace.slavo == without.slavo
        assert with_trace.total_migrations == without.total_migrations
        np.testing.assert_array_equal(
            with_trace.series["active"], without.series["active"]
        )


class TestRunPolicy:
    @pytest.mark.parametrize("name", POLICY_NAMES)
    def test_every_policy_completes(self, name):
        kwargs = small_glap_kwargs() if name == "GLAP" else {}
        result = run_policy(SMALL, make_policy(name, **kwargs), seed=1)
        assert result.policy == name
        assert result.rounds == SMALL.rounds
        assert len(result.series["active"]) == SMALL.rounds
        assert result.slav >= 0.0
        assert result.final_active >= 1

    def test_accounting_reset_before_evaluation(self):
        result = run_policy(SMALL, make_policy("GRMP"), seed=1)
        # SLAVO accounts only evaluation time: Ta = rounds * 120s.
        # A PM awake the whole evaluation has exactly that much.
        assert result.slavo <= 1.0

    def test_deterministic(self):
        a = run_policy(SMALL, make_policy("GRMP"), seed=5)
        b = run_policy(SMALL, make_policy("GRMP"), seed=5)
        assert a.total_migrations == b.total_migrations
        assert a.slav == b.slav
        np.testing.assert_array_equal(a.series["active"], b.series["active"])

    def test_round_hook_called_per_round(self):
        calls = []
        run_policy(
            SMALL,
            make_policy("GRMP"),
            seed=1,
            round_hook=lambda r, dc, sim: calls.append(r),
        )
        assert calls == list(range(SMALL.rounds))

    def test_slav_is_product(self):
        result = run_policy(SMALL, make_policy("EcoCloud"), seed=2)
        assert result.slav == pytest.approx(result.slavo * result.slalm)

