"""Chaos acceptance grid: every policy under loss / churn / partition.

The paper's robustness claim (gossip redundancy ⇒ graceful degradation)
made testable: all four policies run 40 evaluation rounds at 30%
message loss with ~10% PM churn, the InvariantObserver re-verifies the
conservation laws after *every* round (warmup included), no exception
escapes the engine, and degradation stays bounded — survivors keep
consolidating and SLA metrics stay in a sane band.
"""

import pytest

from repro.core.glap import GlapConfig
from repro.experiments.runner import (
    POLICY_NAMES,
    build_simulation,
    make_policy,
    run_policy,
)
from repro.experiments.scenarios import Scenario, chaos_variants
from repro.faults import CrashEvent, FaultController, FaultPlan, RestartEvent
from repro.traces.google import GoogleTraceParams

SCENARIO = Scenario(
    n_pms=20,
    ratio=3,
    rounds=40,
    warmup_rounds=40,
    repetitions=1,
    trace_params=GoogleTraceParams(rounds_per_day=40),
)
POLICY_KWARGS = {"GLAP": {"config": GlapConfig(aggregation_rounds=10)}}

#: 30% loss for the whole run; churn tuned so ≈10% of the 20 PMs crash
#: (and later restart) across the 80 simulated rounds.
CHAOS_PLAN = FaultPlan.message_loss(0.3).merged(
    FaultPlan.churn(0.00125, downtime_rounds=5)
)


def run_chaos(policy_name, plan, seed=5):
    kwargs = POLICY_KWARGS.get(policy_name, {})
    return run_policy(
        SCENARIO.with_faults(plan), make_policy(policy_name, **kwargs), seed
    )


class TestLossAndChurnGrid:
    @pytest.mark.parametrize("policy_name", POLICY_NAMES)
    def test_survives_loss_and_churn_with_invariants(self, policy_name):
        clean = run_chaos(policy_name, FaultPlan.none())
        chaotic = run_chaos(policy_name, CHAOS_PLAN)

        # Invariants held at the end of every single round, or the
        # observer would have raised out of the engine.
        expected_rounds = float(SCENARIO.warmup_rounds + SCENARIO.rounds)
        assert chaotic.extras["invariant_rounds_checked"] == expected_rounds

        # The chaos actually landed: messages dropped near the configured
        # rate for gossip policies; the centralised PABFD sends none.
        sent = chaotic.extras["messages_sent"]
        if sent:
            drop_rate = chaotic.extras["messages_dropped"] / sent
            assert 0.2 < drop_rate < 0.45

        # Graceful degradation, not collapse: survivors keep the data
        # centre consolidated to within a few PMs of the clean run...
        assert chaotic.final_active <= SCENARIO.n_pms
        assert chaotic.final_active >= 1
        assert chaotic.final_active <= clean.final_active + 6
        # ...and SLA drift stays bounded (absolute sanity band plus a
        # generous relative cap over the clean run).
        assert 0.0 <= chaotic.slavo < 0.5
        assert 0.0 <= chaotic.slalm < 0.5
        assert chaotic.slav <= max(clean.slav * 100.0, 1e-4)

    @pytest.mark.parametrize("policy_name", POLICY_NAMES)
    def test_churned_nodes_restart_and_rejoin(self, policy_name):
        chaotic = run_chaos(policy_name, CHAOS_PLAN)
        assert chaotic.extras["fault_crashes"] >= 1
        # Every crash either restarted already or is inside its downtime
        # window at the end of the run.
        assert chaotic.extras["final_failed_nodes"] <= chaotic.extras["fault_crashes"]


class TestExplicitCrashSchedule:
    @pytest.mark.parametrize("policy_name", ["GLAP", "GRMP"])
    def test_crash_then_restart_of_a_tenth_of_the_fleet(self, policy_name):
        # Deterministic schedule: 10% of PMs crash mid-warmup and restart
        # mid-evaluation — the "churn" acceptance case without RNG noise.
        down = tuple(range(SCENARIO.n_pms // 10))
        plan = FaultPlan(
            crashes=(CrashEvent(20, down),),
            restarts=(RestartEvent(60, down),),
        )
        result = run_chaos(policy_name, plan)
        assert result.extras["fault_crashes"] == float(len(down))
        assert result.extras["fault_restarts"] == float(len(down))
        assert result.extras["final_failed_nodes"] == 0.0


class TestPartition:
    @pytest.mark.parametrize("policy_name", ["GLAP", "GRMP"])
    def test_no_cross_group_migrations_while_partitioned(self, policy_name):
        # Gossip-driven policies can only migrate along delivered
        # exchanges, so a clean cut confines their migrations to their
        # side of the partition.  (Coordinator-style policies — EcoCloud's
        # probe path, PABFD's manager — bypass the message plane by
        # design and are exempt.)
        half = SCENARIO.n_pms // 2
        start, end = 50, 70  # evaluation rounds 10..30
        plan = FaultPlan.partition(
            [range(half), range(half, SCENARIO.n_pms)],
            start_round=start,
            end_round=end,
        )

        # Drive the run by hand (same loop as run_policy, without the
        # post-warmup migration-log reset) so every MigrationRecord of
        # the whole run is still in dc.migrations at the end.
        dc, sim, streams = build_simulation(SCENARIO, 5)
        ctl = FaultController(plan, streams.get("faults")).install(dc, sim)
        policy = make_policy(policy_name, **POLICY_KWARGS.get(policy_name, {}))
        policy.attach(dc, sim, streams, SCENARIO.warmup_rounds)
        for _ in range(SCENARIO.warmup_rounds):
            dc.advance_round()
            ctl.before_round(dc, sim)
            sim.run_round()
            policy.step(dc, sim)
        policy.end_warmup(dc, sim)
        for _ in range(SCENARIO.rounds):
            dc.advance_round()
            ctl.before_round(dc, sim)
            sim.run_round()
            policy.step(dc, sim)
        assert sim.network.stats.messages_dropped > 0

        def group_of(pm_id):
            return 0 if pm_id < half else 1

        # dc.current_round tracks sim.round_index one-to-one, so the
        # phase window maps straight onto MigrationRecord.round_index.
        crossing = [
            m
            for m in dc.migrations
            if start <= m.round_index < end
            and group_of(m.src_pm) != group_of(m.dst_pm)
        ]
        assert crossing == []


class TestChaosVariantsCompose:
    def test_variant_grid_runs_all_policies(self):
        scn = Scenario(
            n_pms=12,
            ratio=2,
            rounds=8,
            warmup_rounds=8,
            repetitions=1,
            trace_params=GoogleTraceParams(rounds_per_day=8),
        )
        # Churn composes into every loss level; without it the 0.0 level
        # is the labelled no-faults control.
        assert chaos_variants(scn, loss_levels=(0.0,))[0][0] == "no-faults"
        variants = chaos_variants(scn, loss_levels=(0.0, 0.4), churn_probability=0.01)
        assert [label for label, _ in variants] == ["churn=0.01", "loss=0.4,churn=0.01"]
        for label, chaos_scn in variants:
            assert chaos_scn.check_invariants
            result = run_policy(chaos_scn, make_policy("GRMP"), chaos_scn.seed_of(0))
            assert result.extras["invariant_rounds_checked"] == 16.0
