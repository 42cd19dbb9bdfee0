"""A sharded run under full instrumentation: same digest, no shard timings.

The ledger is accounting, never RNG, so a ``--shards`` run with the
profiler and a live heartbeat lands on the digest of an uninstrumented
unsharded run.  With the worker layer gone there is one round-update
path: the profiler sees no ``shard/*`` phases and no heartbeat tick
carries the old ``shard/phase_max_over_mean`` timing.
"""

from dataclasses import replace

from repro.experiments.runner import make_policy, run_policy
from repro.experiments.scenarios import Scenario, ShardConfig
from repro.obs.heartbeat import HeartbeatWriter, load_heartbeat
from repro.obs.profiler import PhaseProfiler
from tests.golden.test_golden_runs import digest_run


class TestShardedRunIntegration:
    """The bit-identity contract on a real (small) sharded run."""

    SCENARIO = Scenario(n_pms=12, ratio=2, rounds=6, warmup_rounds=6)
    SEED = 3

    def _run(self, scenario=SCENARIO, **kwargs):
        return run_policy(scenario, make_policy("PABFD"), seed=self.SEED, **kwargs)

    def test_profiled_sharded_run_matches_clean_run(self, tmp_path):
        clean = self._run()
        prof = PhaseProfiler()
        hb = HeartbeatWriter(tmp_path / "hb.jsonl")
        instrumented = self._run(
            replace(self.SCENARIO, sharding=ShardConfig(n_shards=2)),
            profiler=prof,
            heartbeat=hb,
        )
        assert digest_run(instrumented) == digest_run(clean)
        bd = prof.breakdown()
        assert bd["advance_round"]["calls"] == self.SCENARIO.total_rounds
        assert not any(name.startswith("shard/") for name in bd)

    def test_unsharded_heartbeat_has_no_imbalance_field(self, tmp_path):
        hb = HeartbeatWriter(tmp_path / "hb.jsonl")
        self._run(heartbeat=hb)
        ticks = [r for r in load_heartbeat(tmp_path / "hb.jsonl") if r["kind"] == "tick"]
        assert ticks and all(
            "shard/phase_max_over_mean" not in t["timing"] for t in ticks
        )
