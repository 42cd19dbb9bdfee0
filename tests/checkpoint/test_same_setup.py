"""A restored run is wired exactly as the fresh run was.

``restore_checkpoint`` calls the runner's one set-up
(``repro.experiments.runner.wire_run``) instead of keeping a copy of it.
This file pins what a second copy would get wrong first, by name rather
than as a golden-digest diff: the order in which telemetry providers
register (a resumed registry lines up with its checkpointed series only
if it is the fresh run's order), the observers on the engine, the
federation ledger's hooks on the network and the data centre, which
sinks the run holds (tracer on the data centre and the engine, profiler
and telemetry on the engine; heartbeat and flight recorder on the
``RunEnv``), and that the tracer is teed through the recorder.  The
fresh side is a real ``run_policy``, its ``RunEnv`` caught on its way
out of ``wire_run``.
"""

import pytest

from repro.checkpoint import restore_checkpoint
from repro.experiments import runner
from repro.experiments.runner import POLICY_NAMES, make_policy, run_policy
from repro.obs.heartbeat import HeartbeatWriter
from repro.obs.profiler import PhaseProfiler
from repro.obs.recorder import FlightRecorder
from repro.obs.telemetry import TelemetryRegistry
from repro.obs.tracer import RecordingTracer
from tests.golden.test_golden_columnar_cell import (
    POLICY_KWARGS,
    SCENARIO,
    sharded,
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


def _sinks(tmp_path, label):
    return dict(
        tracer=RecordingTracer(),
        profiler=PhaseProfiler(),
        telemetry=_Registrations(),
        heartbeat=HeartbeatWriter(tmp_path / f"{label}.jsonl"),
        recorder=FlightRecorder(tmp_path / f"{label}.postmortem.json"),
    )


def _wiring(env, sinks):
    """The facts about a wired run that both sides must agree on."""
    dc, sim, ledger = env.dc, env.sim, env.ledger
    assert sim.network.observer == ledger.observe
    assert dc.migration_observer == ledger.observe_migration
    assert env.heartbeat is sinks["heartbeat"] and env.recorder is sinks["recorder"]
    # One recorder tee over the given tracer, on the data centre and the engine.
    tee = dc.tracer
    assert sim.tracer is tee
    assert tee._recorder is sinks["recorder"] and tee._inner is sinks["tracer"]
    assert sim.profiler is sinks["profiler"]
    assert sim.telemetry is sinks["telemetry"]
    return [type(o).__name__ for o in sim._observers], ledger.shard_map.n_shards


@pytest.mark.parametrize("policy_name", POLICY_NAMES)
def test_restored_setup_is_the_fresh_setup(policy_name, tmp_path, monkeypatch):
    def policy():
        return make_policy(policy_name, **POLICY_KWARGS.get(policy_name, {}))

    wired = []
    wire_run = runner.wire_run
    monkeypatch.setattr(
        runner, "wire_run", lambda *a, **kw: wired.append(wire_run(*a, **kw)) or wired[-1]
    )
    ckpt = tmp_path / "ck.json"
    fresh = _sinks(tmp_path, "fresh")
    run_policy(
        sharded(4),
        policy(),
        SCENARIO.seed_of(0),
        checkpoint_path=ckpt,
        **fresh,
    )
    again = _sinks(tmp_path, "again")
    env = restore_checkpoint(ckpt, policy(), **again)

    assert env.sim.network.observer.__self__ is env.ledger
    assert env.dc.migration_observer.__self__ is env.ledger
    restored = _wiring(env, again)
    assert restored == _wiring(wired[0], fresh)
    assert restored == (["InvariantObserver", "OverloadTraceObserver"], 4)
    assert again["telemetry"].order == fresh["telemetry"].order
    assert fresh["telemetry"].order[: len(RUNNER_PROVIDERS)] == RUNNER_PROVIDERS
    assert len(fresh["telemetry"].order) > len(RUNNER_PROVIDERS)  # the policy's own
