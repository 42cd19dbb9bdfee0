"""A restored run is wired exactly as the fresh run was.

``restore_checkpoint`` calls the runner's one set-up
(``repro.experiments.runner.wire_run``) instead of keeping a copy of it.
This file pins what a second copy would get wrong first, by name rather
than as a golden-digest diff: the order in which telemetry providers
register (a resumed registry lines up with its checkpointed series only
if it is the fresh run's order), the observers on the engine, which
sinks the run holds (tracer on the data centre and the engine, profiler
and telemetry on the engine; the heartbeat on neither, nor on the
``RunEnv``: it belongs to the run driver), and that the driver tees the
tracer through the heartbeat's event ring once.  Both sides
are real driver calls, ``run_policy`` and a ``resume_policy`` of its
final checkpoint, each ``RunEnv`` caught on its way out of
``wire_run``.
"""

import dataclasses

import pytest

from repro.checkpoint import RunEnv
from repro.experiments import runner
from repro.experiments.runner import POLICY_NAMES, make_policy, resume_policy, run_policy
from repro.obs.heartbeat import HeartbeatWriter
from repro.obs.profiler import PhaseProfiler
from repro.obs.telemetry import TelemetryRegistry
from repro.obs.tracer import RecordingTracer
from tests.golden.test_golden_columnar_cell import (
    CHAOS_SCENARIO,
    POLICY_KWARGS,
    SCENARIO,
)

#: What the runner itself registers, in order, before the policy's own.
RUNNER_PROVIDERS = [
    ("counters", "net"),
    ("gauge", "dc/active_pms"),
    ("gauge", "dc/overloaded_pms"),
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

    def register_gauge(self, name, sampler):
        self.order.append(("gauge", name))
        super().register_gauge(name, sampler)


def _sinks(tmp_path, label):
    return dict(
        tracer=RecordingTracer(),
        profiler=PhaseProfiler(),
        telemetry=_Registrations(),
        heartbeat=HeartbeatWriter(tmp_path / f"{label}.jsonl"),
    )


def _wiring(env, sinks):
    """The facts about a wired run that both sides must agree on."""
    dc, sim = env.dc, env.sim
    assert "heartbeat" not in {f.name for f in dataclasses.fields(RunEnv)}
    # One ring tee over the given tracer, on the data centre and the engine.
    tee = dc.tracer
    assert sim.tracer is tee
    assert tee._ring is sinks["heartbeat"]._ring and tee._inner is sinks["tracer"]
    assert sim.profiler is sinks["profiler"]
    assert sim.telemetry is sinks["telemetry"]
    return [type(o).__name__ for o in sim._observers]


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
        CHAOS_SCENARIO,
        policy(),
        SCENARIO.seed_of(0),
        checkpoint_path=ckpt,
        **fresh,
    )
    again = _sinks(tmp_path, "again")
    resume_policy(ckpt, policy(), **again)
    env = wired[1]

    restored = _wiring(env, again)
    assert restored == _wiring(wired[0], fresh)
    assert restored == ["InvariantObserver", "OverloadTraceObserver"]
    assert again["telemetry"].order == fresh["telemetry"].order
    assert fresh["telemetry"].order[: len(RUNNER_PROVIDERS)] == RUNNER_PROVIDERS
    assert len(fresh["telemetry"].order) > len(RUNNER_PROVIDERS)  # the policy's own
