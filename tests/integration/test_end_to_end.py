"""Integration tests: full-policy runs and cross-policy properties.

These run a small-but-real scenario (full diurnal cycle in both warmup
and evaluation) and assert the *structural* properties every run must
satisfy, plus the paper's headline qualitative shape on a single seed.
"""

import numpy as np
import pytest

from repro.core.glap import GlapConfig
from repro.experiments.runner import POLICY_NAMES, make_policy, run_policy
from repro.experiments.scenarios import Scenario
from repro.traces.google import GoogleTraceParams

SCENARIO = Scenario(
    n_pms=24,
    ratio=3,
    rounds=60,
    warmup_rounds=60,
    repetitions=1,
    trace_params=GoogleTraceParams(rounds_per_day=60),
)


@pytest.fixture(scope="module")
def results():
    glap_cfg = GlapConfig(aggregation_rounds=15)
    out = {}
    for name in POLICY_NAMES:
        kwargs = {"config": glap_cfg} if name == "GLAP" else {}
        out[name] = run_policy(SCENARIO, make_policy(name, **kwargs),
                               seed=SCENARIO.seed_of(0))
    return out


class TestStructuralInvariants:
    @pytest.mark.parametrize("name", POLICY_NAMES)
    def test_all_vms_always_placed(self, results, name):
        r = results[name]
        # active + overloaded etc. are per-round; final placement check:
        assert r.final_active >= 1

    @pytest.mark.parametrize("name", POLICY_NAMES)
    def test_series_lengths(self, results, name):
        r = results[name]
        for series in r.series.values():
            assert len(series) == SCENARIO.rounds

    @pytest.mark.parametrize("name", POLICY_NAMES)
    def test_cumulative_migrations_monotone(self, results, name):
        curve = results[name].series["cumulative_migrations"]
        assert np.all(np.diff(curve) >= 0)
        assert curve[-1] == results[name].total_migrations

    @pytest.mark.parametrize("name", POLICY_NAMES)
    def test_overloaded_never_exceeds_active(self, results, name):
        r = results[name]
        assert np.all(r.series["overloaded"] <= r.series["active"])

    @pytest.mark.parametrize("name", POLICY_NAMES)
    def test_sla_fractions_in_range(self, results, name):
        r = results[name]
        assert 0.0 <= r.slavo <= 1.0
        assert 0.0 <= r.slalm <= 1.0

    @pytest.mark.parametrize("name", POLICY_NAMES)
    def test_energy_consistent_with_migrations(self, results, name):
        r = results[name]
        if r.total_migrations > 0:
            assert r.migration_energy_j > 0.0
        else:
            assert r.migration_energy_j == 0.0


class TestPaperShape:
    """The qualitative comparisons of section V on one seed.

    These assertions use generous margins — single-seed, small-scale runs
    are noisy — but the *direction* of each paper claim must hold.
    """

    def test_every_policy_consolidates(self, results):
        for name, r in results.items():
            assert r.mean_of("active") < SCENARIO.n_pms, name

    def test_glap_fewest_overloaded_pms(self, results):
        glap = results["GLAP"].mean_of("overloaded")
        for other in ("EcoCloud", "GRMP", "PABFD"):
            assert glap <= results[other].mean_of("overloaded"), other

    def test_glap_fewest_migrations(self, results):
        glap = results["GLAP"].total_migrations
        for other in ("EcoCloud", "GRMP", "PABFD"):
            assert glap <= results[other].total_migrations, other

    def test_glap_lowest_slav(self, results):
        glap = results["GLAP"].slav
        for other in ("EcoCloud", "GRMP", "PABFD"):
            assert glap <= results[other].slav, other

    def test_aggressive_policies_pack_tighter_than_glap(self, results):
        # GRMP "switches off more PMs quicker" — at SLA expense.
        assert results["GRMP"].mean_of("active") <= results["GLAP"].mean_of(
            "active"
        ) + 1.0

    def test_distributed_policies_frontload_migrations(self, results):
        # Figure 9: gossip policies migrate mostly early; PABFD keeps going.
        for name in ("GLAP", "GRMP"):
            curve = results[name].series["cumulative_migrations"]
            half = SCENARIO.rounds // 2
            if curve[-1] > 0:
                assert curve[half] / curve[-1] > 0.5, name


class TestFairness:
    def test_identical_workload_across_policies(self):
        # Two different policies, same seed: identical trace + placement.
        from repro.experiments.runner import build_simulation

        dc_a, _, _ = build_simulation(SCENARIO, 99)
        dc_b, _, _ = build_simulation(SCENARIO, 99)
        np.testing.assert_array_equal(dc_a.placement(), dc_b.placement())
        for r in (0, 10, 59):
            np.testing.assert_array_equal(
                dc_a.trace.demands_at(r), dc_b.trace.demands_at(r)
            )
