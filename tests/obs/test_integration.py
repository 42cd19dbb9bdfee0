"""End-to-end observability: tracing and profiling real runs.

The golden suite proves enabled tracing is bit-identical; these tests
prove the *content* is right — the expected event kinds appear with
sane provenance, overload enter/exit pair up, fault injection shows in
the stream, and the profiler explains the run's wall time.
"""

import time

import pytest

from repro.experiments.parallel import run_sweep
from repro.experiments.runner import make_policy, run_policy
from repro.experiments.scenarios import Scenario
from repro.faults import FaultPlan
from repro.obs.profiler import PhaseProfiler
from repro.obs.summary import load_summary
from repro.obs.tracer import EVENT_KINDS, RecordingTracer
from repro.traces.google import GoogleTraceParams

SCENARIO = Scenario(
    n_pms=12,
    ratio=3,
    rounds=15,
    warmup_rounds=40,
    repetitions=1,
    trace_params=GoogleTraceParams(rounds_per_day=15),
)
TOTAL_ROUNDS = SCENARIO.warmup_rounds + SCENARIO.rounds


@pytest.fixture(scope="module")
def traced_glap():
    tracer = RecordingTracer()
    result = run_policy(
        SCENARIO, make_policy("GLAP"), SCENARIO.seed_of(0), tracer=tracer
    )
    return tracer, result


class TestGlapEventStream:
    def test_protocol_events_present(self, traced_glap):
        tracer, _ = traced_glap
        kinds = {e["ev"] for e in tracer.events}
        # Warmup runs learning + aggregation; evaluation consolidates.
        assert {"q_pull", "q_push", "eviction", "migration"} <= kinds
        assert kinds <= EVENT_KINDS

    def test_provenance_in_range(self, traced_glap):
        tracer, _ = traced_glap
        for e in tracer.events:
            assert 0 <= e["round"] < TOTAL_ROUNDS
            assert 0 <= e["node"] < SCENARIO.n_pms

    def test_migration_count_matches_accounting(self, traced_glap):
        tracer, result = traced_glap
        migrations = tracer.of_kind("migration")
        # The DataCenter resets accounting at end of warmup, so the
        # result counts evaluation-phase migrations only.
        eval_migrations = [
            e for e in migrations if e["round"] >= SCENARIO.warmup_rounds
        ]
        assert len(eval_migrations) == result.total_migrations

    def test_migrated_evictions_match_migration_events(self, traced_glap):
        tracer, _ = traced_glap
        migrated = [
            e for e in tracer.of_kind("eviction") if e["outcome"] == "migrated"
        ]
        assert len(migrated) == len(tracer.of_kind("migration"))

    def test_sleep_events_cover_final_sleepers(self, traced_glap):
        tracer, result = traced_glap
        # Every PM that ended asleep must have logged a pm_sleep (GLAP
        # has no wake path for its own switch-offs in a clean run).
        asleep = SCENARIO.n_pms - result.final_active
        slept_ids = {e["node"] for e in tracer.of_kind("pm_sleep")}
        assert len(slept_ids) >= asleep


class TestOverloadLifecycle:
    def test_enter_exit_alternate_per_pm(self):
        tracer = RecordingTracer()
        run_policy(
            SCENARIO, make_policy("GRMP"), SCENARIO.seed_of(0), tracer=tracer
        )
        state = {}
        for e in tracer.events:
            if e["ev"] == "overload_enter":
                assert state.get(e["node"]) is not True, "double enter"
                state[e["node"]] = True
            elif e["ev"] == "overload_exit":
                assert state.get(e["node"]) is True, "exit without enter"
                state[e["node"]] = False


class TestFaultEvents:
    def test_crash_and_restart_traced(self):
        plan = FaultPlan.message_loss(0.3).merged(
            FaultPlan.churn(0.01, downtime_rounds=3)
        )
        tracer = RecordingTracer()
        result = run_policy(
            SCENARIO.with_faults(plan, check_invariants=False),
            make_policy("GRMP"),
            SCENARIO.seed_of(0),
            tracer=tracer,
        )
        crashes = tracer.of_kind("pm_crash")
        assert len(crashes) == int(result.extras["fault_crashes"])
        assert len(tracer.of_kind("pm_restart")) == int(
            result.extras["fault_restarts"]
        )
        assert crashes, "churn plan injected no crashes — scenario too small"


class TestProfilerOnRealRun:
    def test_top_level_phases_explain_wall_time(self):
        prof = PhaseProfiler()
        t0 = time.perf_counter()
        run_policy(
            SCENARIO, make_policy("GLAP"), SCENARIO.seed_of(0), profiler=prof
        )
        wall = time.perf_counter() - t0
        assert prof.top_level_s <= wall + 1e-6
        # The loop stages cover everything but attach/finish/result
        # assembly; they must explain most of the run.
        assert prof.top_level_s > 0.5 * wall
        bd = prof.breakdown()
        for stage in ("advance_round", "engine_round", "policy_step", "metrics"):
            assert bd[stage]["calls"] == TOTAL_ROUNDS or stage == "metrics"
        assert bd["metrics"]["calls"] == SCENARIO.rounds
        # Nested engine phases are present and within their parent.
        assert bd["gossip"]["total_s"] <= bd["engine_round"]["total_s"] + 1e-6


class TestSweepBenchOut:
    def test_sweep_writes_loadable_summary(self, tmp_path):
        path = tmp_path / "BENCH_sweep.json"
        small = Scenario(
            n_pms=10,
            ratio=2,
            rounds=6,
            warmup_rounds=6,
            repetitions=2,
            trace_params=GoogleTraceParams(rounds_per_day=6),
        )
        results = run_sweep(
            [small], policies=("GRMP", "EcoCloud"), jobs=1, bench_out=path
        )
        s = load_summary(path)
        assert s["kind"] == "sweep"
        label = small.label()
        for policy in ("GRMP", "EcoCloud"):
            cell = s["timings"]["phases"][f"{label}/{policy}"]
            assert cell["calls"] == 2 and cell["total_s"] > 0.0
            runs = results.of(small, policy)
            expected = sum(r.total_migrations for r in runs) / len(runs)
            assert s["metrics"][f"{label}/{policy}/total_migrations"] == expected

    def test_bench_out_does_not_change_results(self, tmp_path):
        small = Scenario(
            n_pms=10,
            ratio=2,
            rounds=6,
            warmup_rounds=6,
            repetitions=1,
            trace_params=GoogleTraceParams(rounds_per_day=6),
        )
        plain = run_sweep([small], policies=("GRMP",), jobs=1)
        benched = run_sweep(
            [small], policies=("GRMP",), jobs=1,
            bench_out=tmp_path / "b.json",
        )
        a, b = plain.of(small, "GRMP")[0], benched.of(small, "GRMP")[0]
        assert (a.slav, a.total_migrations) == (b.slav, b.total_migrations)
