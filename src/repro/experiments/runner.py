"""The experiment runner.

Guarantees fairness exactly the way the paper does: for a given
(scenario, repetition) seed, the generated trace and the initial random
VM-PM mapping are *identical for every policy* ("such VM-PM mapping is
used identically for all different algorithms in each experiment");
only the policies' own protocol randomness differs by named stream.

The run path is written once and laid out in DESIGN.md "Run path":
one set-up (:func:`wire_run`) that builds the run and wires all five
sinks onto it, one round body (:func:`run_round`) for warm-up and
evaluation, and one driver behind :func:`run_policy` and
:func:`resume_policy` — a resumed run differs only in its set-up,
:func:`~repro.checkpoint.restore_checkpoint`, and in skipping the
warm-up it already ran.
"""

from __future__ import annotations

import signal
import threading
from pathlib import Path
from types import TracebackType
from typing import TYPE_CHECKING, Any, Callable, Dict, Optional, Tuple, Type, Union

from repro.baselines.base import ConsolidationPolicy
from repro.baselines.bfd import bfd_baseline_active_pms
from repro.baselines.ecocloud import EcoCloudPolicy
from repro.baselines.grmp import GrmpPolicy
from repro.baselines.pabfd import PabfdPolicy
from repro.checkpoint import RunEnv, restore_checkpoint, save_checkpoint
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

if TYPE_CHECKING:
    from repro.obs.recorder import FlightRecorder

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
    nodes = [Node(pm.pm_id, payload=pm) for pm in dc.pms]
    sim = Simulation(nodes, streams.get("engine"))
    return dc, sim, streams


class _SignalAbort(BaseException):
    """SIGTERM/SIGINT converted into an exception by the failure guard.

    A ``BaseException`` (like ``KeyboardInterrupt``) so ordinary
    ``except Exception`` handlers inside the run body cannot swallow a
    termination request; raising it from the handler lets the flight
    recorder dump on the main thread with the event ring intact.
    """

    def __init__(self, signum: int) -> None:
        super().__init__(f"terminated by signal {signum}")
        self.signum = signum


def _classify_failure(exc: BaseException) -> str:
    """Map a dying run's exception onto a flight-recorder dump reason."""
    if isinstance(exc, InvariantViolation):
        return "invariant_violation"
    if isinstance(exc, _SignalAbort):
        return "sigterm" if exc.signum == signal.SIGTERM else "sigint"
    return "exception"


class _FailureGuard:
    """One funnel for every way a run can die (see ISSUE: flight recorder).

    Entered around the run body when observability is wired in.  While a
    flight recorder is installed (and we are on the main thread, where
    Python allows it), SIGTERM/SIGINT are converted to
    :class:`_SignalAbort`.  Any ``BaseException`` escaping the body is
    classified (invariant violation / signal / exception), dumped as a
    post-mortem bundle, and marked on the heartbeat stream — then
    re-raised, signals as ``SystemExit(128 + signum)`` per the Unix
    convention.  With neither recorder nor heartbeat this is a no-op.
    """

    def __init__(
        self,
        recorder: Optional[FlightRecorder],
        heartbeat: Optional[HeartbeatWriter],
    ) -> None:
        self._recorder = recorder
        self._heartbeat = heartbeat
        self._previous: Dict[int, Any] = {}

    def __enter__(self) -> "_FailureGuard":
        if (
            self._recorder is not None
            and threading.current_thread() is threading.main_thread()
        ):
            def _raise(signum: int, frame: Any) -> None:
                raise _SignalAbort(signum)

            for signum in (signal.SIGTERM, signal.SIGINT):
                try:
                    self._previous[signum] = signal.signal(signum, _raise)
                except (ValueError, OSError):  # pragma: no cover - exotic hosts
                    pass
        return self

    def __exit__(
        self,
        exc_type: Optional[Type[BaseException]],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> bool:
        for signum, previous in self._previous.items():
            signal.signal(signum, previous)
        if exc is None:
            return False
        reason = _classify_failure(exc)
        # Best-effort on the crash path: a failing dump must not mask
        # the original exception.
        if self._recorder is not None:
            try:
                self._recorder.dump(reason, error=repr(exc))
            except Exception:
                pass
        if self._heartbeat is not None and self._heartbeat.started:
            try:
                self._heartbeat.abort(reason, error=repr(exc))
            except Exception:
                pass
        if isinstance(exc, _SignalAbort):
            raise SystemExit(128 + exc.signum) from exc
        return False


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


def wire_run(
    scenario: Scenario,
    policy: ConsolidationPolicy,
    seed: int,
    *,
    trace: Optional[TraceSource] = None,
    tracer: Optional[Tracer] = None,
    profiler: Optional[NullProfiler] = None,
    telemetry: Optional[Telemetry] = None,
    heartbeat: Optional[HeartbeatWriter] = None,
    recorder: Optional[FlightRecorder] = None,
) -> RunEnv:
    """The one set-up of a run: build, wire the five sinks, attach the policy.

    :func:`run_policy` drives the result from round 0;
    :func:`~repro.checkpoint.restore_checkpoint` calls this too and only
    then overwrites the mutable state, which is why a resumed telemetry
    registry lines up with its checkpointed series.  Tracer, profiler
    and telemetry go on ``sim`` / ``dc``; the heartbeat and the flight
    recorder ride on the returned :class:`RunEnv`.  The order of the
    steps is a contract: DESIGN.md "Run path".
    """
    tracer = tracer if tracer is not None else NULL_TRACER
    sharding = scenario.sharding
    if recorder is not None:
        # Before the build, so a set-up that dies still dumps with provenance.
        recorder.bind(
            config={
                "policy": policy.name,
                "seed": int(seed),
                "n_pms": scenario.n_pms,
                "n_vms": scenario.n_vms,
                "rounds": scenario.rounds,
                "warmup_rounds": scenario.warmup_rounds,
                "round_seconds": scenario.round_seconds,
                "n_shards": sharding.n_shards if sharding is not None else None,
            },
            heartbeat_path=heartbeat.path if heartbeat is not None else None,
        )
        # Tee every typed event through the flight ring; the inner
        # tracer (possibly the null one) keeps its contract unchanged.
        tracer = recorder.wrap(tracer)
    ledger = None
    if sharding is not None:
        # Imported here, not at the top: only a sharded run needs it.
        from repro.experiments.sharding import CrossShardLedger

        ledger = CrossShardLedger.for_run(sharding, scenario.n_pms)
    dc, sim, streams = build_simulation(scenario, seed, trace=trace)
    if ledger is not None:
        sim.network.observer = ledger.observe
        dc.migration_observer = ledger.observe_migration
    env = RunEnv(
        scenario, policy, seed, dc, sim, streams,
        ledger=ledger, heartbeat=heartbeat, recorder=recorder,
    )
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
        if ledger is not None:
            telemetry.register_counters("shard", ledger.telemetry_counters)
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
    round_hook: Optional[Callable[[int, DataCenter, Simulation], None]] = None,
) -> None:
    """The one round body; its order of effects is a contract (DESIGN.md
    "Run path").  It is an evaluation round once ``env`` has its metrics
    collector, which the run driver creates when warm-up ends: only
    then does it sample, call ``round_hook`` and count towards
    ``eval_rounds_done``.
    """
    policy, dc, sim, collector = env.policy, env.dc, env.sim, env.collector
    heartbeat = env.heartbeat
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
    # checkpoint save: checkpointed series cover exactly the completed rounds.
    round_index = sim.round_index - 1
    if telemetry.enabled:
        telemetry.end_round(round_index)
    if collector is not None:
        if round_hook is not None:
            round_hook(env.eval_rounds_done, dc, sim)
        env.eval_rounds_done += 1
    if heartbeat is not None and heartbeat.due(round_index):
        # After the sample and the hook, before the checkpoint save: a
        # resume from that checkpoint continues the tick stream exactly.
        heartbeat.tick(
            round_index=round_index,
            stage="warmup" if collector is None else "eval",
            eval_round=None if collector is None else env.eval_rounds_done,
            telemetry=telemetry,
            active_pms=dc.active_count(),
            overloaded_pms=dc.overloaded_count(),
        )


def _drive(
    env: RunEnv,
    round_hook: Optional[Callable[[int, DataCenter, Simulation], None]],
    checkpoint_every: Optional[int],
    checkpoint_path: Optional[Union[str, Path]],
) -> RunResult:
    """Drive a wired ``env`` to completion and assemble the result: the
    one driver of fresh and resumed runs.

    A fresh ``env`` (no metrics collector yet) runs its warm-up first; a
    restored one starts at ``env.eval_rounds_done``, so a
    checkpoint-and-resume run executes exactly the rounds an
    uninterrupted run would.  Checkpoints are saved at evaluation-round
    boundaries — after the round's metrics sample and ``round_hook`` —
    every ``checkpoint_every`` completed rounds, plus a final one when
    ``checkpoint_path`` is set at all.
    """
    scenario, policy, dc, sim = env.scenario, env.policy, env.dc, env.sim
    recorder, heartbeat, telemetry = env.recorder, env.heartbeat, sim.telemetry
    if recorder is not None:
        # Stream names are complete only after attach (policies register
        # their protocol streams there).
        recorder.bind(
            telemetry=telemetry if telemetry.enabled else None,
            stream_names=env.streams.names(),
        )
    if heartbeat is not None:
        heartbeat.start(
            policy=policy.name,
            n_pms=scenario.n_pms,
            n_vms=scenario.n_vms,
            seed=env.seed,
            rounds_total=scenario.total_rounds,
            warmup_rounds=scenario.warmup_rounds,
            eval_rounds=scenario.rounds,
            resumed_from=None if env.collector is None else env.eval_rounds_done,
        )
    if env.collector is None:
        for _ in range(scenario.warmup_rounds):
            run_round(env)
        policy.end_warmup(dc, sim)
        dc.reset_accounting()
        env.collector = MetricsCollector(dc)
    collector, controller = env.collector, env.controller
    last_saved = None

    def save() -> None:
        nonlocal last_saved
        save_checkpoint(env, checkpoint_path)  # type: ignore[arg-type]
        last_saved = env.eval_rounds_done
        if recorder is not None:
            recorder.checkpoint_saved(
                checkpoint_path,  # type: ignore[arg-type]
                env.eval_rounds_done,
            )

    while env.eval_rounds_done < scenario.rounds:
        run_round(env, round_hook)
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
    round_hook: Optional[Callable[[int, DataCenter, Simulation], None]] = None,
    trace: Optional[TraceSource] = None,
    tracer: Optional[Tracer] = None,
    profiler: Optional[NullProfiler] = None,
    telemetry: Optional[Telemetry] = None,
    checkpoint_every: Optional[int] = None,
    checkpoint_path: Optional[Union[str, Path]] = None,
    heartbeat: Optional[HeartbeatWriter] = None,
    recorder: Optional[FlightRecorder] = None,
) -> RunResult:
    """Run one policy through warmup + evaluation; returns the result.

    The run is configured by ``scenario`` alone: ``scenario.faults``
    routes it through a :class:`FaultController` drawing only from the
    ``"faults"`` stream (a zero-fault plan is bit-identical to no plan),
    ``scenario.check_invariants`` attaches an :class:`InvariantObserver`
    that re-verifies the conservation laws at the end of every round,
    warmup included, and ``scenario.sharding`` partitions the PMs into K
    shards and keeps the in-process federation ledger over them
    (intra/inter-shard messages, WAN-priced migrations).  The ledger only
    counts, so results are bit-identical for every K, including K=1 vs
    no sharding at all (the golden suite asserts it); only the
    ``shard/*`` telemetry counters differ across K.  Override any of
    them with ``scenario.with_faults(plan)`` or ``dataclasses.replace``.

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
    :class:`~repro.obs.telemetry.TelemetryRegistry`) records per-round
    counter/gauge series — the network, the fault controller and the
    policy register their providers during setup.  All three default to
    shared no-ops, never consume randomness, and leave every result
    bit-identical — the golden suite asserts this even with them
    *enabled*.

    ``checkpoint_path`` enables checkpointing: a snapshot of complete
    run state is written there atomically every ``checkpoint_every``
    evaluation rounds (plus once at the end), resumable bit-identically
    via :func:`resume_policy`.  ``checkpoint_every`` without a path is
    an error.

    ``heartbeat`` (a :class:`~repro.obs.heartbeat.HeartbeatWriter`)
    streams one JSONL record per cadence tick for ``glap watch``;
    ``recorder`` (a :class:`~repro.obs.recorder.FlightRecorder`) keeps a
    bounded ring of recent events and dumps a post-mortem bundle when
    the run dies — from an invariant violation, an unhandled exception,
    or SIGTERM/SIGINT (converted to an exception while a recorder is
    installed).  Both read clocks only, never the RNG streams, so
    results stay bit-identical with them enabled.
    """
    _validate_checkpoint_args(checkpoint_every, checkpoint_path)
    with _FailureGuard(recorder, heartbeat):
        env = wire_run(
            scenario,
            policy,
            seed,
            trace=trace,
            tracer=tracer,
            profiler=profiler,
            telemetry=telemetry,
            heartbeat=heartbeat,
            recorder=recorder,
        )
        return _drive(env, round_hook, checkpoint_every, checkpoint_path)


def resume_policy(
    checkpoint_path: Union[str, Path],
    policy: ConsolidationPolicy,
    round_hook: Optional[Callable[[int, DataCenter, Simulation], None]] = None,
    trace: Optional[TraceSource] = None,
    tracer: Optional[Tracer] = None,
    profiler: Optional[NullProfiler] = None,
    telemetry: Optional[Telemetry] = None,
    checkpoint_every: Optional[int] = None,
    checkpoint_to: Optional[Union[str, Path]] = None,
    heartbeat: Optional[HeartbeatWriter] = None,
    recorder: Optional[FlightRecorder] = None,
) -> RunResult:
    """Resume a run from a checkpoint and drive it to completion.

    ``policy`` must be a fresh instance configured exactly like the
    original run's (same name and constructor arguments) — the
    checkpoint carries all *mutable* policy state but configuration is
    the caller's provenance.  The run's scenario, its fault plan and
    shard layout included, is the checkpoint's.  The returned result is
    bit-identical to what the uninterrupted run would have produced,
    including with faults and enabled tracing.

    ``checkpoint_to`` (default: ``checkpoint_path``) is where continued
    checkpoints are written when ``checkpoint_every`` is set; a final
    checkpoint is written there whenever either is set.

    ``heartbeat`` continues the original run's stream when pointed at
    the same file: the writer repairs a torn tail, rebuilds its counter
    baseline from the surviving ticks, and appends a ``resumed`` marker
    — the combined stream is identical (modulo ``timing``) to an
    uninterrupted run's.  ``recorder`` behaves as in :func:`run_policy`,
    the restore included: a resume that dies while rebuilding dumps a
    bundle naming the checkpoint.  Once restored, the checkpoint is the
    recorder's latest pointer.
    """
    target = checkpoint_to if checkpoint_to is not None else (
        checkpoint_path if checkpoint_every is not None else None
    )
    # Before the restore: a bad cadence must not cost a whole rebuild.
    _validate_checkpoint_args(checkpoint_every, target)
    if recorder is not None:
        recorder.bind(config={"resumed_from_checkpoint": str(checkpoint_path)})
    with _FailureGuard(recorder, heartbeat):
        env = restore_checkpoint(
            checkpoint_path,
            policy,
            trace=trace,
            tracer=tracer,
            profiler=profiler,
            telemetry=telemetry,
            heartbeat=heartbeat,
            recorder=recorder,
        )
        if recorder is not None:
            recorder.checkpoint_saved(checkpoint_path, env.eval_rounds_done)
        return _drive(env, round_hook, checkpoint_every, target)

