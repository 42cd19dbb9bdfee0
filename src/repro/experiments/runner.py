"""The experiment runner.

Guarantees fairness exactly the way the paper does: for a given
(scenario, repetition) seed, the generated trace and the initial random
VM-PM mapping are *identical for every policy* ("such VM-PM mapping is
used identically for all different algorithms in each experiment");
only the policies' own protocol randomness differs by named stream.

The run path is written once and laid out in DESIGN.md "Run path":
one set-up (:func:`wire_run`) that builds the run and wires the
tracer, profiler and telemetry onto it, one round body
(:func:`run_round`) for warm-up and evaluation, and one driver behind
:func:`run_policy` and :func:`resume_policy` — a resumed run differs
only in its set-up, :func:`~repro.checkpoint.restore_checkpoint`, and
in skipping the warm-up it already ran.  The live-run sink, the
heartbeat stream, belongs to that driver alone.
"""

from __future__ import annotations

import signal
import threading
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, Optional, Tuple, Union

from repro.baselines.base import ConsolidationPolicy
from repro.baselines.bfd import bfd_baseline_active_pms
from repro.baselines.ecocloud import EcoCloudPolicy
from repro.baselines.grmp import GrmpPolicy
from repro.baselines.pabfd import PabfdPolicy
from repro.checkpoint import RunEnv, load_checkpoint, save_checkpoint
from repro.checkpoint.snapshot import _restore
from repro.config import scenario_from_dict
from repro.core.glap import GlapPolicy
from repro.datacenter.cluster import DataCenter
from repro.experiments.scenarios import Scenario
from repro.faults.controller import FaultController
from repro.metrics.collector import MetricsCollector
from repro.metrics.report import RunResult
from repro.metrics.sla import datacenter_slalm, datacenter_slavo
from repro.obs.heartbeat import HeartbeatWriter
from repro.obs.observers import OverloadTraceObserver
from repro.obs.profiler import NULL_PROFILER, NullProfiler
from repro.obs.telemetry import NULL_TELEMETRY, Telemetry
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.simulator.engine import Simulation
from repro.simulator.node import Node
from repro.simulator.observer import InvariantObserver, InvariantViolation
from repro.traces.base import TraceSource
from repro.traces.google import GoogleLikeTraceGenerator
from repro.util.rng import RngStreams

__all__ = [
    "POLICY_NAMES",
    "make_policy",
    "build_trace",
    "build_simulation",
    "wire_run",
    "run_round",
    "run_policy",
    "resume_policy",
]

POLICY_NAMES: Tuple[str, ...] = ("GLAP", "EcoCloud", "GRMP", "PABFD")
#: ``round_hook(eval_round_index, dc, sim)``: see :func:`run_policy`.
RoundHook = Callable[[int, DataCenter, Simulation], None]


def make_policy(name: str, **kwargs) -> ConsolidationPolicy:
    """Policy factory by paper name (case-insensitive)."""
    key = name.strip().lower()
    if key == "glap":
        return GlapPolicy(**kwargs)
    if key == "ecocloud":
        return EcoCloudPolicy(**kwargs)
    if key == "grmp":
        return GrmpPolicy(**kwargs)
    if key == "pabfd":
        return PabfdPolicy(**kwargs)
    raise ValueError(f"unknown policy {name!r}; known: {POLICY_NAMES}")


def build_trace(scenario: Scenario, seed: int) -> TraceSource:
    """Generate the (scenario, seed) workload trace.

    Drawn from the seed's named ``"trace"`` stream, so the result is
    identical whether the trace is built here or inside
    :func:`build_simulation` — named streams are independent.
    """
    return GoogleLikeTraceGenerator(scenario.trace_params).generate(
        scenario.n_vms, scenario.total_rounds, RngStreams(seed).get("trace")
    )


def build_simulation(
    scenario: Scenario,
    seed: int,
    trace: Optional[TraceSource] = None,
) -> Tuple[DataCenter, Simulation, RngStreams]:
    """Construct (data centre, simulation, rng streams) for one run.

    Trace and placement depend only on (scenario, seed) — never on the
    policy — so every policy faces the identical workload.  A pre-built
    ``trace`` (from :func:`build_trace`) is used verbatim, skipping the
    redundant regeneration; the placement and engine streams are
    unaffected either way.
    """
    streams = RngStreams(seed)
    if trace is None:
        trace = GoogleLikeTraceGenerator(scenario.trace_params).generate(
            scenario.n_vms, scenario.total_rounds, streams.get("trace")
        )
    dc = DataCenter(
        scenario.n_pms,
        scenario.n_vms,
        trace,
        round_seconds=scenario.round_seconds,
    )
    dc.place_randomly(streams.get("placement"))
    nodes = [Node(pm_id) for pm_id in range(dc.n_pms)]
    sim = Simulation(nodes, streams.get("engine"))
    return dc, sim, streams


class _SignalAbort(BaseException):
    """SIGTERM/SIGINT converted into an exception by the failure guard.

    A ``BaseException`` (like ``KeyboardInterrupt``) so ordinary
    ``except Exception`` handlers inside the run body cannot swallow a
    termination request; raising it from the handler lets the heartbeat
    write its ``abort`` record on the main thread with the event ring
    intact.
    """

    def __init__(self, signum: int) -> None:
        super().__init__(f"terminated by signal {signum}")
        self.signum = signum


def _classify_failure(exc: BaseException) -> str:
    """Map a dying run's exception onto an ``abort`` record's reason."""
    if isinstance(exc, InvariantViolation):
        return "invariant_violation"
    if isinstance(exc, _SignalAbort):
        return "sigterm" if exc.signum == signal.SIGTERM else "sigint"
    return "exception"


@contextmanager
def _failure_guard(heartbeat: Optional[HeartbeatWriter]) -> Iterator[None]:
    """One funnel for every way a run can die.

    :func:`run_policy` and :func:`resume_policy` enter it around the
    whole run, the set-up or restore included, with the run's heartbeat.
    While a heartbeat is installed (and we are on the main thread, where
    Python allows it), SIGTERM/SIGINT are converted to
    :class:`_SignalAbort`.  Any ``BaseException`` escaping the body is
    classified (invariant violation / signal / exception) and written
    as the stream's ``abort`` record — then re-raised, signals as
    ``SystemExit(128 + signum)`` per the Unix convention.  Without a
    heartbeat this is a no-op.
    """
    previous: Dict[int, Any] = {}
    if heartbeat is not None and threading.current_thread() is threading.main_thread():
        def _raise(signum: int, frame: Any) -> None:
            raise _SignalAbort(signum)

        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                previous[signum] = signal.signal(signum, _raise)
            except (ValueError, OSError):  # pragma: no cover - exotic hosts
                pass
    try:
        try:
            yield
        finally:
            for signum, handler in previous.items():
                signal.signal(signum, handler)
    except BaseException as exc:
        # Best-effort on the crash path: a failing write must not mask
        # the original exception.
        if heartbeat is not None and heartbeat.started:
            try:
                heartbeat.abort(_classify_failure(exc), error=repr(exc))
            except Exception:
                pass
        if isinstance(exc, _SignalAbort):
            raise SystemExit(128 + exc.signum) from exc
        raise


def _validate_checkpoint_args(
    checkpoint_every: Optional[int],
    checkpoint_path: Optional[Union[str, Path]],
) -> None:
    if checkpoint_every is not None:
        if checkpoint_every <= 0:
            raise ValueError(
                f"checkpoint_every must be > 0, got {checkpoint_every}"
            )
        if checkpoint_path is None:
            raise ValueError("checkpoint_every requires checkpoint_path")


def _open_stream(
    heartbeat: Optional[HeartbeatWriter],
    tracer: Optional[Tracer],
    scenario: Scenario,
    policy: ConsolidationPolicy,
    seed: int,
    resumed_from: Optional[int] = None,
) -> Optional[Tracer]:
    """Open ``heartbeat``'s stream and return the tracer to wire:
    ``tracer`` teed through the stream's event ring.  Called before the
    set-up or restore, so a run that dies in it still ends its stream
    with an ``abort`` record."""
    if heartbeat is None:
        return tracer
    heartbeat.start(
        policy=policy.name,
        n_pms=scenario.n_pms,
        n_vms=scenario.n_vms,
        seed=seed,
        rounds_total=scenario.total_rounds,
        warmup_rounds=scenario.warmup_rounds,
        eval_rounds=scenario.rounds,
        resumed_from=resumed_from,
    )
    return heartbeat.wrap(tracer if tracer is not None else NULL_TRACER)


def wire_run(
    scenario: Scenario,
    policy: ConsolidationPolicy,
    seed: int,
    *,
    trace: Optional[TraceSource] = None,
    tracer: Optional[Tracer] = None,
    profiler: Optional[NullProfiler] = None,
    telemetry: Optional[Telemetry] = None,
) -> RunEnv:
    """The one set-up of a run: build, wire the sinks, attach the policy.

    :func:`run_policy` drives the result from round 0;
    :func:`~repro.checkpoint.restore_checkpoint` calls this too and only
    then overwrites the mutable state, which is why a resumed telemetry
    registry continues its checkpointed totals.  Tracer, profiler
    and telemetry go on ``sim`` / ``dc``.  The order of the steps is a
    contract: DESIGN.md "Run path".
    """
    tracer = tracer if tracer is not None else NULL_TRACER
    dc, sim, streams = build_simulation(scenario, seed, trace=trace)
    env = RunEnv(scenario, policy, seed, dc, sim, streams)
    prof = profiler if profiler is not None else NULL_PROFILER
    telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
    dc.tracer = tracer
    sim.tracer = tracer
    sim.profiler = prof
    # Installed before controller.install and policy.attach so both can
    # register their counter providers.
    sim.telemetry = telemetry
    if telemetry.enabled:
        telemetry.register_counters("net", sim.network.telemetry_counters)
        # Data-centre level gauges: sampled straight off the columnar
        # store's arrays (O(n_pms) vector ops), never consume randomness.
        telemetry.register_gauge("dc/active_pms", lambda: float(dc.active_count()))
        telemetry.register_gauge(
            "dc/overloaded_pms", lambda: float(dc.overloaded_count())
        )
    if scenario.faults is not None:
        env.controller = FaultController(
            scenario.faults, streams.get("faults")
        ).install(dc, sim)
    if scenario.check_invariants:
        env.invariant_observer = InvariantObserver(dc)
        sim.add_observer(env.invariant_observer)
    if tracer.enabled:
        env.overload_observer = OverloadTraceObserver(dc, tracer)
        sim.add_observer(env.overload_observer)
    policy.attach(dc, sim, streams, scenario.warmup_rounds)
    return env


def run_round(
    env: RunEnv,
    round_hook: Optional[RoundHook] = None,
) -> None:
    """The one round body; its order of effects is a contract (DESIGN.md
    "Run path").  It is an evaluation round once ``env`` has its metrics
    collector, which the run driver creates when warm-up ends: only
    then does it sample, call ``round_hook`` and count towards
    ``eval_rounds_done``.
    """
    policy, dc, sim, collector = env.policy, env.dc, env.sim, env.collector
    # The per-stage timers cost one no-op context manager per stage per
    # round when profiling is off — far below measurement noise.
    prof, telemetry = sim.profiler, sim.telemetry
    with prof.phase("advance_round"):
        dc.advance_round()
    if env.controller is not None:
        with prof.phase("faults"):
            env.controller.before_round(dc, sim)
    with prof.phase("engine_round"):
        sim.run_round()
    with prof.phase("policy_step"):
        policy.step(dc, sim)
    if collector is not None:
        with prof.phase("metrics"):
            collector.sample()
    # run_round already advanced the counter, so the round just executed
    # is round_index - 1.  Telemetry closes it before round_hook and the
    # checkpoint save: checkpointed totals cover exactly the completed rounds.
    if telemetry.enabled:
        telemetry.end_round(sim.round_index - 1)
    if collector is not None:
        if round_hook is not None:
            round_hook(env.eval_rounds_done, dc, sim)
        env.eval_rounds_done += 1


def _drive(
    env: RunEnv,
    round_hook: Optional[RoundHook],
    checkpoint_every: Optional[int],
    checkpoint_path: Optional[Union[str, Path]],
    heartbeat: Optional[HeartbeatWriter],
) -> RunResult:
    """Drive a wired ``env`` to completion and assemble the result: the
    one driver of fresh and resumed runs, and the only holder of the
    heartbeat, whose stream is already open.

    A fresh ``env`` (no metrics collector yet) runs its warm-up first; a
    restored one starts at ``env.eval_rounds_done``, so a
    checkpoint-and-resume run executes exactly the rounds an
    uninterrupted run would.  The heartbeat ticks after each round,
    when due; checkpoints are saved at evaluation-round boundaries —
    after the round's metrics sample, ``round_hook`` and tick — every
    ``checkpoint_every`` completed rounds, plus a final one when
    ``checkpoint_path`` is set at all.
    """
    scenario, policy, dc, sim = env.scenario, env.policy, env.dc, env.sim
    telemetry = sim.telemetry

    def one_round(hook: Optional[RoundHook] = None) -> None:
        run_round(env, hook)
        round_index = sim.round_index - 1
        if heartbeat is not None and heartbeat.due(round_index):
            # Before the checkpoint save: the tick carries the registry's
            # totals, which that checkpoint stores.
            heartbeat.tick(
                round_index=round_index,
                stage="warmup" if env.collector is None else "eval",
                eval_round=None if env.collector is None else env.eval_rounds_done,
                telemetry=telemetry,
                active_pms=dc.active_count(),
                overloaded_pms=dc.overloaded_count(),
            )

    if env.collector is None:
        for _ in range(scenario.warmup_rounds):
            one_round()
        policy.end_warmup(dc, sim)
        dc.reset_accounting()
        env.collector = MetricsCollector(dc)
    collector, controller = env.collector, env.controller
    last_saved = None

    def save() -> None:
        nonlocal last_saved
        save_checkpoint(env, checkpoint_path)  # type: ignore[arg-type]
        last_saved = env.eval_rounds_done
        if heartbeat is not None:
            heartbeat.checkpoint_saved(checkpoint_path, env.eval_rounds_done)  # type: ignore[arg-type]

    while env.eval_rounds_done < scenario.rounds:
        one_round(round_hook)
        if (
            checkpoint_every is not None
            and env.eval_rounds_done % checkpoint_every == 0
        ):
            save()
    if checkpoint_path is not None and last_saved != env.eval_rounds_done:
        save()

    sim.finish()  # exactly one on_simulation_end per logical run
    if heartbeat is not None:
        heartbeat.complete()
    result = RunResult(
        policy=policy.name,
        n_pms=scenario.n_pms,
        n_vms=scenario.n_vms,
        rounds=scenario.rounds,
        seed=env.seed,
        slavo=datacenter_slavo(dc),
        slalm=datacenter_slalm(dc),
        total_migrations=dc.migration_count(),
        migration_energy_j=dc.total_migration_energy_j(),
        final_active=dc.active_count(),
        final_overloaded=dc.overloaded_count(),
        bfd_baseline_pms=bfd_baseline_active_pms(dc),
        series={name: collector.get(name) for name in MetricsCollector.SERIES},
    )
    result.slav = result.slavo * result.slalm
    # Left-Riemann integral of the end-of-round power snapshots.
    result.dc_energy_j = float(
        collector.get("dc_power").sum() * scenario.round_seconds
    )
    # Chaos diagnostics live in ``extras`` so the metric fields proper
    # stay bit-identical between a zero-fault and a plain run.
    if controller is not None:
        result.extras.update(controller.stats_dict())
        result.extras["messages_dropped"] = float(sim.network.stats.messages_dropped)
        result.extras["messages_sent"] = float(sim.network.stats.messages_sent)
        result.extras["final_failed_nodes"] = float(
            sum(1 for n in sim.nodes if n.is_failed)
        )
    if env.invariant_observer is not None:
        result.extras["invariant_rounds_checked"] = float(
            env.invariant_observer.rounds_checked
        )
    return result

def run_policy(
    scenario: Scenario,
    policy: ConsolidationPolicy,
    seed: int,
    round_hook: Optional[RoundHook] = None,
    trace: Optional[TraceSource] = None,
    tracer: Optional[Tracer] = None,
    profiler: Optional[NullProfiler] = None,
    telemetry: Optional[Telemetry] = None,
    checkpoint_every: Optional[int] = None,
    checkpoint_path: Optional[Union[str, Path]] = None,
    heartbeat: Optional[HeartbeatWriter] = None,
) -> RunResult:
    """Run one policy through warmup + evaluation; returns the result.

    The run is configured by ``scenario`` alone: ``scenario.faults``
    routes it through a :class:`FaultController` drawing only from the
    ``"faults"`` stream (a zero-fault plan is bit-identical to no plan),
    and ``scenario.check_invariants`` attaches an
    :class:`InvariantObserver` that re-verifies the conservation laws at
    the end of every round, warmup included.  Override either with
    ``scenario.with_faults(plan)`` or ``dataclasses.replace``.

    ``round_hook(eval_round_index, dc, sim)`` is a caller's probe: it is
    called after each evaluation round's metrics sample and before that
    round's checkpoint save, so it may read the live state (or raise to
    interrupt the run there).  ``trace`` short-circuits workload
    generation (see :func:`build_simulation`); results are identical
    with or without it.

    ``tracer`` installs a structured event tracer on the data centre,
    the engine and the fault controller (see :mod:`repro.obs.tracer`);
    ``profiler`` accumulates a per-phase wall-time breakdown (see
    :mod:`repro.obs.profiler`); ``telemetry`` (a
    :class:`~repro.obs.telemetry.TelemetryRegistry`) keeps running
    counter totals and sampled gauges — the network, the fault
    controller and the policy register their providers during setup.  All three default to
    shared no-ops, never consume randomness, and leave every result
    bit-identical — the golden suite asserts this even with them
    *enabled*.

    ``checkpoint_path`` enables checkpointing: a snapshot of complete
    run state is written there atomically every ``checkpoint_every``
    evaluation rounds (plus once at the end), resumable bit-identically
    via :func:`resume_policy`.  ``checkpoint_every`` without a path is
    an error.

    ``heartbeat`` (a :class:`~repro.obs.heartbeat.HeartbeatWriter`)
    streams one JSONL record per cadence tick for ``glap watch``, from
    a header written before the set-up.  It keeps a bounded ring of
    recent events, and when the run dies — from an invariant violation,
    an unhandled exception, or SIGTERM/SIGINT (converted to an exception
    while a heartbeat is installed) — it ends the stream with an
    ``abort`` record holding the post-mortem.  It reads clocks only,
    never the RNG streams, so results stay bit-identical with it on.
    """
    _validate_checkpoint_args(checkpoint_every, checkpoint_path)
    with _failure_guard(heartbeat):
        tracer = _open_stream(heartbeat, tracer, scenario, policy, seed)
        env = wire_run(
            scenario, policy, seed, trace=trace,
            tracer=tracer, profiler=profiler, telemetry=telemetry,
        )
        return _drive(env, round_hook, checkpoint_every, checkpoint_path, heartbeat)


def resume_policy(
    checkpoint_path: Union[str, Path],
    policy: ConsolidationPolicy,
    round_hook: Optional[RoundHook] = None,
    trace: Optional[TraceSource] = None,
    tracer: Optional[Tracer] = None,
    profiler: Optional[NullProfiler] = None,
    telemetry: Optional[Telemetry] = None,
    checkpoint_every: Optional[int] = None,
    checkpoint_to: Optional[Union[str, Path]] = None,
    heartbeat: Optional[HeartbeatWriter] = None,
    payload: Optional[Dict[str, Any]] = None,
) -> RunResult:
    """Resume a run from a checkpoint and drive it to completion.

    ``policy`` must be a fresh instance configured exactly like the
    original run's (same name and constructor arguments) — the
    checkpoint carries all *mutable* policy state but configuration is
    the caller's provenance.  The run's scenario, its fault plan
    included, is the checkpoint's.  The returned result is
    bit-identical to what the uninterrupted run would have produced,
    including with faults and enabled tracing.

    ``checkpoint_to`` (default: ``checkpoint_path``) is where continued
    checkpoints are written when ``checkpoint_every`` is set; a final
    checkpoint is written there whenever either is set.

    ``heartbeat`` continues the original run's stream when pointed at
    the same file, after a ``resumed`` marker: whichever round the
    original run died in, the stream read latest-tick-per-round (as
    ``glap watch`` reads it) is the uninterrupted run's, modulo
    ``timing``.  The ``resumed`` marker goes on before the restore, so
    a resume that dies while rebuilding still ends the stream with an
    ``abort`` record, which points at the checkpoint it resumed from.

    ``payload`` is the file's content when the caller has already read
    it with :func:`~repro.checkpoint.load_checkpoint`; the file is then
    not read again.
    """
    target = checkpoint_to if checkpoint_to is not None else (
        checkpoint_path if checkpoint_every is not None else None
    )
    # Before the restore: a bad cadence must not cost a whole rebuild.
    _validate_checkpoint_args(checkpoint_every, target)
    with _failure_guard(heartbeat):
        # Loaded once: the stream opens on the checkpointed run's
        # identity before its restore, as a fresh run's before its set-up.
        if payload is None:
            payload = load_checkpoint(checkpoint_path)
        scenario = scenario_from_dict(payload["scenario"])
        resumed_from = payload["progress"]["eval_rounds_done"]
        tracer = _open_stream(
            heartbeat, tracer, scenario, policy, payload["seed"],
            resumed_from=resumed_from,
        )
        if heartbeat is not None:
            heartbeat.checkpoint_saved(checkpoint_path, resumed_from)
        env = _restore(
            payload, scenario, policy, where=str(checkpoint_path), trace=trace,
            tracer=tracer, profiler=profiler, telemetry=telemetry,
        )
        return _drive(env, round_hook, checkpoint_every, target, heartbeat)

