"""One measured cell, run in a fresh single-threaded process by ``run.py``.

Untraced: the real entry points, exactly as ``glap run`` uses them —
``build_trace`` then ``run_policy``.  Traced: the same lifecycle driven
from here (the loop documented in ``repro.baselines.base`` and mirrored
from ``repro.experiments.runner``) with a span around every call into a
layer; its ``RunResult`` digest must equal the untraced one, so this
copy of the loop can never drift from ``runner.py`` unnoticed.

Prints one JSON object as the last line of stdout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time
from pathlib import Path
from typing import Any, Dict, Optional

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parents[1] / "src"))

from probe import SpeedProbe  # noqa: E402
from spans import SpanRecorder  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

#: The training cell behind ``pretrain_pms``: learning + aggregation rounds,
#: and its own fixed seed — every workload seed consolidates with the same
#: model, which takes the model out of the seed-to-seed spread.
PRETRAIN_LEARN, PRETRAIN_AGGREGATE, PRETRAIN_SEED = 10, 6, 2016
#: Diurnal period of every cell's trace.  Each run spans several cycles,
#: so the trace's one global phase draw (60 % of VMs peak together) does
#: not decide whether a seed's run starts at the peak or in the trough.
ROUNDS_PER_DAY = 12
#: Operator cadences of the ``observed`` workload.
HEARTBEAT_EVERY, CHECKPOINT_EVERY, GAUGE_EVERY = 5, 4, 10
#: Convergence check after Algorithm 2: mean pairwise cosine over the
#: first models by node id (all pairs), and the floor it must reach.
Q_COSINE_MODELS, Q_COSINE_MIN = 16, 0.95


def _rss_mb() -> float:
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2**20


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def digest_run(result: Any) -> str:
    """Bit-exact fingerprint of a RunResult, in the style of
    ``tests/golden/test_golden_runs.py::digest_run``, hashed to one string."""
    import numpy as np

    out: Dict[str, Any] = {
        "policy": result.policy,
        "seed": result.seed,
        "total_migrations": int(result.total_migrations),
        "final_active": int(result.final_active),
        "final_overloaded": int(result.final_overloaded),
        "bfd_baseline_pms": int(result.bfd_baseline_pms),
        "extras": {k: float(v).hex() for k, v in sorted(result.extras.items())},
    }
    for name in ("slavo", "slalm", "slav", "migration_energy_j", "dc_energy_j"):
        out[name] = float(getattr(result, name)).hex()
    for name in sorted(result.series):
        arr = np.ascontiguousarray(result.series[name])
        out[f"series/{name}"] = (
            f"{arr.dtype}{list(arr.shape)}:{hashlib.sha256(arr.tobytes()).hexdigest()}"
        )
    return hashlib.sha256(json.dumps(out, sort_keys=True).encode()).hexdigest()


def _stats(result: Any) -> Dict[str, Any]:
    """Simulated statistics: not metrics, but a speed-only change must
    leave them identical."""
    return {
        "result_digest": digest_run(result),
        "total_migrations": int(result.total_migrations),
        "final_active": int(result.final_active),
        "final_overloaded": int(result.final_overloaded),
        "slav": float(result.slav),
    }


# -- building a cell ---------------------------------------------------------


def make_scenario(w: Workload) -> Any:
    from repro.experiments.scenarios import Scenario
    from repro.traces.google import GoogleTraceParams

    return Scenario(
        n_pms=w.n_pms,
        ratio=w.ratio,
        rounds=w.rounds,
        warmup_rounds=w.warmup,
        repetitions=1,
        trace_params=GoogleTraceParams(rounds_per_day=ROUNDS_PER_DAY),
        check_invariants=w.observed,
    )


def pretrain(w: Workload) -> Any:
    """Learn a model on a small training cell and export it (set-up work)."""
    from repro.core.glap import GlapConfig, GlapPolicy
    from repro.experiments.runner import run_policy
    from repro.experiments.scenarios import Scenario
    from repro.traces.google import GoogleTraceParams

    warmup = PRETRAIN_LEARN + PRETRAIN_AGGREGATE
    scenario = Scenario(
        n_pms=w.pretrain_pms,
        ratio=w.ratio,
        rounds=1,
        warmup_rounds=warmup,
        repetitions=1,
        trace_params=GoogleTraceParams(rounds_per_day=ROUNDS_PER_DAY),
    )
    policy = GlapPolicy(GlapConfig(aggregation_rounds=PRETRAIN_AGGREGATE))
    run_policy(scenario, policy, PRETRAIN_SEED)
    return policy.export_model()


def make_policy(w: Workload, pretrained: Any) -> Any:
    if w.policy == "GLAP":
        from repro.core.glap import GlapConfig, GlapPolicy

        config = GlapConfig(
            aggregation_rounds=w.aggregation_rounds,
            q_partitions=w.q_partitions,
            gossip_tokens=w.gossip_tokens,
        )
        return GlapPolicy(config, pretrained=pretrained)
    if w.policy == "GRMP":
        from repro.baselines.grmp import GrmpPolicy

        return GrmpPolicy()
    from repro.baselines.base import ConsolidationPolicy

    class IdlePolicy(ConsolidationPolicy):
        """Registers nothing: the engine loop runs protocol-less."""

        name = "Idle"

        def attach(self, dc: Any, sim: Any, streams: Any, warmup_rounds: int) -> None:
            pass

    return IdlePolicy()


class Sinks:
    """The operator's instrumentation of the ``observed`` workload."""

    def __init__(self, workdir: Path) -> None:
        from repro.obs.heartbeat import HeartbeatWriter
        from repro.obs.telemetry import TelemetryRegistry
        from repro.obs.tracer import JsonlTracer

        workdir.mkdir(parents=True, exist_ok=True)
        self.trace_path = workdir / "trace.jsonl"
        self.checkpoint_path = workdir / "run.ckpt.json"
        self.telemetry = TelemetryRegistry(gauge_every=GAUGE_EVERY)
        self.heartbeat = HeartbeatWriter(workdir / "heartbeat.jsonl", every=HEARTBEAT_EVERY)
        self.tracer = JsonlTracer(self.trace_path)


# -- the untraced run --------------------------------------------------------


def run_untraced(
    w: Workload, seed: int, workdir: Path, t_spawn: float,
    probe: Optional[SpeedProbe], probe_mb: float,
) -> Dict[str, Any]:
    from repro.experiments.runner import build_trace, run_policy

    scenario = make_scenario(w)
    pretrained = pretrain(w) if w.pretrain_pms else None
    trace = build_trace(scenario, seed)
    t_setup = time.monotonic()
    probe_setup_s = probe.busy_s if probe else 0.0

    policy = make_policy(w, pretrained)
    if w.observed:
        sinks = Sinks(workdir)
        result = run_policy(
            scenario, policy, seed, trace=trace,
            tracer=sinks.tracer, telemetry=sinks.telemetry, heartbeat=sinks.heartbeat,
            checkpoint_every=CHECKPOINT_EVERY, checkpoint_path=sinks.checkpoint_path,
        )
        sinks.tracer.close()
    else:
        result = run_policy(scenario, policy, seed, trace=trace)
    t_run = time.monotonic()
    probe_run_s = probe.busy_s - probe_setup_s if probe else 0.0

    # Wall time less the probe's own; run.py scales both by ``speed``.
    return {
        "setup_s": t_setup - t_spawn - probe_setup_s,
        "run_s": t_run - t_setup - probe_run_s,
        "speed": probe.speed() if probe else 1.0,
        "probe_samples": len(probe.samples) if probe else 0,
        "peak_rss_mb": _peak_rss_mb() - probe_mb,  # the program's, not the probe's
        **_stats(result),
    }


# -- the traced run ----------------------------------------------------------


def run_traced(w: Workload, seed: int, workdir: Path, t_spawn: float) -> Dict[str, Any]:
    from repro.baselines.bfd import bfd_baseline_active_pms
    from repro.checkpoint import RunEnv, restore_checkpoint, save_checkpoint
    from repro.core.convergence import mean_pairwise_cosine
    from repro.experiments.runner import build_simulation, build_trace
    from repro.metrics.collector import MetricsCollector
    from repro.metrics.report import RunResult
    from repro.metrics.sla import slalm, slavo
    from repro.obs.observers import OverloadTraceObserver
    from repro.simulator.observer import (
        InvariantObserver,
        InvariantViolation,
        check_datacenter_invariants,
    )

    scenario = make_scenario(w)
    t0 = time.monotonic()
    pretrained = pretrain(w) if w.pretrain_pms else None
    pretrain_s = time.monotonic() - t0 if w.pretrain_pms else 0.0

    rss_before = _rss_mb()
    t0 = time.monotonic()
    trace = build_trace(scenario, seed)
    trace_build_s = time.monotonic() - t0
    trace_peak_mb = max(0.0, _peak_rss_mb() - rss_before)
    t_setup = time.monotonic()
    cpu_setup = time.process_time()

    rec = SpanRecorder()
    policy = make_policy(w, pretrained)
    policy_layer = "core.glap" if w.policy == "GLAP" else "baselines"
    sinks = Sinks(workdir) if w.observed else None

    # From here to ``t_run`` mirrors runner._run_policy_inner + _run_eval
    # (no faults, no sharding, no flight recorder: no workload uses them).
    root = rec.begin("experiments:run")
    with rec.span("datacenter:build"):
        dc, sim, streams = build_simulation(scenario, seed, trace=trace)
    if sinks:
        dc.tracer = sim.tracer = sinks.tracer
        sim.telemetry = sinks.telemetry
        sinks.telemetry.register_counters("net", sim.network.telemetry_counters)
        sinks.telemetry.register_gauge("dc/active_pms", lambda: float(dc.active_count()))
        sinks.telemetry.register_gauge(
            "dc/overloaded_pms", lambda: float(dc.overloaded_count())
        )
        rec.wrap(sinks.tracer, "emit", "obs:tracer_emit")
    invariants: Optional[InvariantObserver] = None
    observers: list = []
    if scenario.check_invariants:
        invariants = InvariantObserver(dc)
        observers.append(invariants)
    if sinks:
        observers.append(OverloadTraceObserver(dc, sinks.tracer))
    for observer in observers:
        sim.add_observer(observer)
        rec.wrap(observer, "observe", "simulator:observers")

    with rec.span(f"{policy_layer}:attach"):
        policy.attach(dc, sim, streams, scenario.warmup_rounds)
    if w.policy == "GLAP":
        phases = policy.phase_protocol
        rec.wrap(policy.cyclon, "execute_round", "overlay:execute")
        rec.wrap(phases.learning, "execute_round", "core.learning:execute")
        rec.wrap(phases.aggregation, "execute_round", "core.aggregation:execute")
        rec.wrap(phases.consolidation, "execute_round", "core.consolidation:execute")
    elif w.policy == "GRMP":
        rec.wrap(policy.cyclon, "execute_round", "overlay:execute")
        rec.wrap(policy.protocol, "execute_round", "baselines:grmp")

    def one_round(stage: str, **tick_fields: Any) -> None:
        with rec.span("datacenter:advance"):
            dc.advance_round()
        with rec.span("simulator:run_round"):
            sim.run_round()
        policy.step(dc, sim)
        if stage == "eval":
            with rec.span("metrics:sample"):
                collector.sample()
        if sinks:
            with rec.span("obs:telemetry"):
                sinks.telemetry.end_round(sim.round_index - 1)
            if sinks.heartbeat.due(sim.round_index - 1):
                with rec.span("obs:heartbeat"):
                    sinks.heartbeat.tick(
                        round_index=sim.round_index - 1, stage=stage,
                        telemetry=sim.telemetry, active_pms=dc.active_count(),
                        overloaded_pms=dc.overloaded_count(), shard_imbalance=None,
                        **tick_fields,
                    )

    saved_at = []
    checkpoint_bytes = 0

    def checkpoint() -> None:
        nonlocal checkpoint_bytes
        with rec.span("checkpoint:save"):
            save_checkpoint(env, sinks.checkpoint_path)
        saved_at.append(env.eval_rounds_done)
        checkpoint_bytes += sinks.checkpoint_path.stat().st_size

    if sinks:
        with rec.span("obs:heartbeat"):
            sinks.heartbeat.start(
                policy=policy.name, n_pms=scenario.n_pms, n_vms=scenario.n_vms,
                seed=seed, rounds_total=scenario.total_rounds,
                warmup_rounds=scenario.warmup_rounds, eval_rounds=scenario.rounds,
            )
    for _ in range(scenario.warmup_rounds):
        one_round("warmup")
    policy.end_warmup(dc, sim)
    warmup_migrations = dc.migration_count()
    dc.reset_accounting()

    collector = MetricsCollector(dc)
    env = RunEnv(
        scenario=scenario, policy=policy, seed=seed, dc=dc, sim=sim,
        streams=streams, collector=collector, invariant_observer=invariants,
    )
    for r in range(scenario.rounds):
        one_round("eval", eval_round=r + 1)
        env.eval_rounds_done = r + 1
        if sinks and env.eval_rounds_done % CHECKPOINT_EVERY == 0:
            checkpoint()
    if sinks and saved_at[-1:] != [env.eval_rounds_done]:
        checkpoint()
    sim.finish()
    if sinks:
        with rec.span("obs:heartbeat"):
            sinks.heartbeat.complete()
    with rec.span("metrics:result"):
        result = RunResult(
            policy=policy.name, n_pms=scenario.n_pms, n_vms=scenario.n_vms,
            rounds=scenario.rounds, seed=seed,
            slavo=slavo(dc.pms), slalm=slalm(dc.vms),
            total_migrations=dc.migration_count(),
            migration_energy_j=dc.total_migration_energy_j(),
            final_active=dc.active_count(), final_overloaded=dc.overloaded_count(),
            bfd_baseline_pms=0,
            series={name: collector.get(name) for name in MetricsCollector.SERIES},
        )
        result.slav = result.slavo * result.slalm
        result.dc_energy_j = float(collector.get("dc_power").sum() * scenario.round_seconds)
        if invariants is not None:
            result.extras["invariant_rounds_checked"] = float(invariants.rounds_checked)
    with rec.span("baselines:bfd_baseline"):
        result.bfd_baseline_pms = bfd_baseline_active_pms(dc)
    if sinks:
        with rec.span("obs:tracer_close"):
            sinks.tracer.close()
    rec.end(root)
    t_run = time.monotonic()
    cpu_s = time.process_time() - cpu_setup

    # -- the clock has stopped: output checks, then the per-layer numbers ----
    checks: Dict[str, bool] = {"wrappers_restored": rec.restore() == 0}
    try:
        check_datacenter_invariants(dc, sim)
        checks["conserved_at_end"] = True
    except InvariantViolation as exc:
        print(f"invariant violation at end of run: {exc}", file=sys.stderr)
        checks["conserved_at_end"] = False

    spans = rec.aggregate()
    run_s = t_run - t_setup

    def self_s(name: str) -> float:
        return spans[name]["self_s"] if name in spans else 0.0

    def calls(name: str) -> int:
        return spans[name]["calls"] if name in spans else 0

    def us_per_call(name: str) -> float:
        return self_s(name) / calls(name) * 1e6 if name in spans else 0.0

    cells = scenario.n_vms * scenario.total_rounds
    layer: Dict[str, float] = {
        "traces.build_s": trace_build_s,
        "traces.cells": cells,
        "traces.ns_per_cell": trace_build_s / cells * 1e9,
        "traces.resident_mb": trace.data.nbytes / 2**20,
        "traces.peak_mb": trace_peak_mb,
        "datacenter.build_s": self_s("datacenter:build"),
        "datacenter.advance_s": self_s("datacenter:advance"),
        "datacenter.advance_calls": calls("datacenter:advance"),
        "datacenter.advance_us_per_vm": us_per_call("datacenter:advance") / scenario.n_vms,
        "datacenter.migrations": warmup_migrations + dc.migration_count(),
        "simulator.run_round_s": spans["simulator:run_round"]["total_s"],
        "simulator.self_s": self_s("simulator:run_round"),
        "simulator.rounds": sim.round_index,
        "simulator.observers_s": self_s("simulator:observers"),
        "simulator.messages_sent": sim.network.stats.messages_sent,
        "simulator.messages_dropped": sim.network.stats.messages_dropped,
        "overlay.execute_s": self_s("overlay:execute"),
        "overlay.calls": calls("overlay:execute"),
        "overlay.us_per_call": us_per_call("overlay:execute"),
        "core.glap.attach_s": self_s("core.glap:attach"),
        "core.glap.pretrain_s": pretrain_s,
        "core.learning.train_rounds": 0,
        "core.aggregation.bytes": 0,
        "core.aggregation.deferred": 0,
        "core.aggregation.q_cosine_final": 0.0,
        "core.consolidation.migrations_per_call": 0.0,
        "baselines.grmp.s": self_s("baselines:grmp"),
        "baselines.grmp.calls": calls("baselines:grmp"),
        "baselines.grmp.us_per_call": us_per_call("baselines:grmp"),
        "baselines.bfd.baseline_s": self_s("baselines:bfd_baseline"),
        "metrics.sample_s": self_s("metrics:sample"),
        "metrics.sample_calls": calls("metrics:sample"),
        "metrics.result_s": self_s("metrics:result"),
        "obs.telemetry_s": self_s("obs:telemetry"),
        "obs.heartbeat_s": self_s("obs:heartbeat"),
        "obs.heartbeat_bytes": 0,
        "obs.tracer_emit_s": self_s("obs:tracer_emit") + self_s("obs:tracer_close"),
        "obs.tracer_events": 0,
        "obs.tracer_bytes": 0,
        "checkpoint.save_s": self_s("checkpoint:save"),
        "checkpoint.saves": len(saved_at),
        "checkpoint.bytes": checkpoint_bytes,
        "checkpoint.restore_s": 0.0,
        "experiments.residual_frac": self_s("experiments:run") / run_s,
        "experiments.cpu_s": cpu_s,
    }
    for phase in ("learning", "aggregation", "consolidation"):
        layer[f"core.{phase}.s"] = self_s(f"core.{phase}:execute")
        layer[f"core.{phase}.calls"] = calls(f"core.{phase}:execute")
        layer[f"core.{phase}.us_per_call"] = us_per_call(f"core.{phase}:execute")
    if w.policy == "GLAP":
        bandwidth = phases.aggregation.bandwidth_counters()
        models = [policy.models[nid] for nid in sorted(policy.models)][:Q_COSINE_MODELS]
        attempts = calls("core.consolidation:execute")
        layer.update({
            "core.learning.train_rounds": phases.learning.train_rounds,
            "core.aggregation.bytes": bandwidth["bytes"],
            "core.aggregation.deferred": bandwidth["deferred"],
            "core.aggregation.q_cosine_final": mean_pairwise_cosine(models),
            "core.consolidation.migrations_per_call": (
                phases.consolidation.migrations_done / attempts if attempts else 0.0
            ),
        })
        checks["q_cosine_converged"] = (
            layer["core.aggregation.q_cosine_final"] >= Q_COSINE_MIN
        )
    if sinks:
        t0 = time.monotonic()
        restored = restore_checkpoint(
            sinks.checkpoint_path, make_policy(w, pretrained), trace=trace
        )
        layer["checkpoint.restore_s"] = time.monotonic() - t0
        checks["restore_lands_on_final_round"] = (
            restored.eval_rounds_done == scenario.rounds
            and restored.sim.round_index == scenario.total_rounds
        )
        layer.update({
            "obs.heartbeat_bytes": sinks.heartbeat.path.stat().st_size,
            "obs.tracer_events": sinks.tracer.events_emitted,
            "obs.tracer_bytes": sinks.trace_path.stat().st_size,
        })

    # Share of the traced run_s spent in each layer itself ("layer:op" spans).
    shares: Dict[str, float] = {}
    for name, row in spans.items():
        key = name.split(":")[0]
        shares[key] = shares.get(key, 0.0) + row["self_s"] / run_s

    return {
        "setup_s": t_setup - t_spawn,
        "run_s": run_s,
        "layer": layer,
        "layer_share": shares,
        "spans": spans,
        "checks": checks,
        **_stats(result),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--smoke", type=int, default=0)
    parser.add_argument("--traced", type=int, default=0)
    parser.add_argument("--probe", type=int, default=0,
                        help="sample core speed during the untraced run (see probe.py)")
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--t-spawn", type=float, required=True,
                        help="parent's time.monotonic() just before spawning")
    args = parser.parse_args()
    if args.probe and args.traced:
        parser.error("the probe's ticks would land inside spans: untraced cells only")
    rss_before = _rss_mb()
    probe = SpeedProbe() if args.probe else None
    probe_mb = _rss_mb() - rss_before
    if probe:
        probe.start()  # before the program's imports: they are part of set-up
    w = WORKLOADS[args.workload].at_scale(bool(args.smoke))
    if args.traced:
        out = run_traced(w, args.seed, args.workdir, args.t_spawn)
    else:
        out = run_untraced(w, args.seed, args.workdir, args.t_spawn, probe, probe_mb)
    if probe:
        probe.stop()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
