"""A restored run is wired exactly as the fresh run was.

``restore_checkpoint`` calls the runner's one set-up
(``repro.experiments.runner.wire_run``) instead of keeping a copy of it.
This file pins what a second copy would get wrong first, by name rather
than as a golden-digest diff: the order in which telemetry providers
register (a resumed registry lines up with its checkpointed series only
if it is the fresh run's order), the observers on the engine, the
federation ledger's hooks on the network and the data centre, and which tracer and profiler
the data centre, the engine and the network hold.  The fresh side is a
real ``run_policy`` observed through its ``round_hook``.
"""

import pytest

from repro.checkpoint import restore_checkpoint
from repro.experiments.runner import POLICY_NAMES, make_policy, run_policy
from repro.experiments.sharding import CrossShardLedger, ShardConfig
from repro.obs.profiler import PhaseProfiler
from repro.obs.telemetry import TelemetryRegistry
from repro.obs.tracer import RecordingTracer
from tests.golden.test_golden_columnar_cell import (
    FAULT_PLAN,
    POLICY_KWARGS,
    SCENARIO,
)

#: What the runner itself registers, in order, before the policy's own.
RUNNER_PROVIDERS = [
    ("counters", "net"),
    ("gauge", "dc/active_pms"),
    ("gauge", "dc/overloaded_pms"),
    ("counters", "shard"),
    ("counters", "faults"),
]


class _Registrations(TelemetryRegistry):
    """A registry that remembers the order providers registered in."""

    def __init__(self):
        super().__init__(gauge_every=4)
        self.order = []

    def register_counters(self, source, provider):
        self.order.append(("counters", source))
        super().register_counters(source, provider)

    def register_gauge(self, name, sampler, every=None):
        self.order.append(("gauge", name))
        super().register_gauge(name, sampler, every)


def _wiring(dc, sim, tracer, profiler):
    """The facts about a wired run that both sides must agree on."""
    ledger = sim.network.observer.__self__
    assert isinstance(ledger, CrossShardLedger)
    assert sim.network.observer == ledger.observe
    assert dc.migration_observer == ledger.observe_migration
    assert dc.tracer is tracer and sim.tracer is tracer
    assert sim.profiler is profiler and sim.network.profiler is profiler
    return [type(o).__name__ for o in sim._observers], ledger.shard_map.n_shards


@pytest.mark.parametrize("policy_name", POLICY_NAMES)
def test_restored_setup_is_the_fresh_setup(policy_name, tmp_path):
    def policy():
        return make_policy(policy_name, **POLICY_KWARGS.get(policy_name, {}))

    ckpt = tmp_path / "ck.json"
    live = {}
    fresh = dict(
        tracer=RecordingTracer(), profiler=PhaseProfiler(), telemetry=_Registrations()
    )
    run_policy(
        SCENARIO,
        policy(),
        SCENARIO.seed_of(0),
        round_hook=lambda r, dc, sim: live.update(dc=dc, sim=sim),
        faults=FAULT_PLAN,
        check_invariants=True,
        sharding=ShardConfig(n_shards=4),
        checkpoint_path=ckpt,
        **fresh,
    )
    again = dict(
        tracer=RecordingTracer(), profiler=PhaseProfiler(), telemetry=_Registrations()
    )
    env = restore_checkpoint(ckpt, policy(), **again)

    assert env.sim.network.observer.__self__ is env.ledger
    assert env.dc.migration_observer.__self__ is env.ledger
    assert env.sim.telemetry is again["telemetry"]
    restored = _wiring(env.dc, env.sim, again["tracer"], again["profiler"])
    assert restored == _wiring(
        live["dc"], live["sim"], fresh["tracer"], fresh["profiler"]
    )
    assert restored == (["InvariantObserver", "OverloadTraceObserver"], 4)
    assert again["telemetry"].order == fresh["telemetry"].order
    assert fresh["telemetry"].order[: len(RUNNER_PROVIDERS)] == RUNNER_PROVIDERS
    assert len(fresh["telemetry"].order) > len(RUNNER_PROVIDERS)  # the policy's own
