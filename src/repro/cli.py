"""Command-line interface.

::

    glap run --policy GLAP --pms 60 --ratio 3            # one run
    glap run --trace run.jsonl --profile                 # ... observed
    glap compare --pms 60 --ratio 3 --reps 2             # all policies
    glap sweep --out results.json                        # scaled grid
    glap sweep --jobs 4 --bench-out BENCH_sweep.json     # ... benchmarked
    glap chaos --loss 0.0 0.3 --churn 0.005              # fault-injection grid
    glap figures --figure 6                              # regenerate a figure
    glap trace --vms 100 --rounds 180 --out trace.csv    # export a trace
    glap bench-compare baseline.json current.json        # CI perf gate
    glap run --telemetry --trace --bench-out B.json      # instrumented run
    glap run --shards 4 --pms 1000 --telemetry           # federation ledger
    glap analyze trace.jsonl --summary B.json            # run-health report
    glap analyze --diff a.jsonl b.jsonl                  # trace diff
    glap run --heartbeat hb.jsonl --postmortem pm.json   # live-observable run
    glap watch hb.jsonl                                  # follow a live run
    glap watch rundir --once --json                      # scriptable check

``analyze`` exits 0 when the run is healthy, 1 when any invariant
check fails (or, with ``--diff``, when the traces differ) and 2 on
usage errors — the same convention ``bench-compare`` and ``watch``
use, so all three slot into CI gates directly.

Every command prints plain text; JSON output goes to ``--out`` files so
results can be post-processed.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import replace
from typing import List, Optional

from repro.experiments.figures import (
    figure5_convergence,
    figure6_overload_fraction,
    figure7_overloaded_pms,
    figure8_migrations,
    figure9_cumulative_migrations,
    figure10_energy_overhead,
    format_figure5,
    format_figure6,
    format_figure9,
    format_figure10,
    format_percentile_rows,
    run_sweep,
)
from repro.experiments.runner import (
    POLICY_NAMES,
    make_policy,
    resume_policy,
    run_policy,
)
from repro.experiments.scenarios import Scenario, ShardConfig, chaos_variants, scaled_grid
from repro.experiments.tables import format_table1, table1_sla
from repro.traces.google import GoogleLikeTraceGenerator, GoogleTraceParams

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="glap",
        description="GLAP (CLUSTER 2016) reproduction: distributed dynamic "
        "workload consolidation through gossip-based learning.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_scenario_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--pms", type=int, default=60, help="number of PMs")
        p.add_argument("--ratio", type=int, default=3, help="VM:PM ratio")
        p.add_argument("--rounds", type=int, default=180, help="evaluation rounds")
        p.add_argument("--warmup", type=int, default=180, help="warmup rounds")
        p.add_argument("--seed", type=int, default=2016, help="base seed")

    def add_jobs_arg(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--jobs",
            type=int,
            default=None,
            help="parallel worker processes (0 = one per CPU; default: "
            "$REPRO_JOBS or 1; results are identical at any value)",
        )

    def add_gossip_bw_args(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--q-partitions",
            type=int,
            default=1,
            metavar="K",
            help="GLAP only: slice Q-maps into K keyed partitions and "
            "gossip one rotating partition per contact (default 1 = the "
            "paper's full-union-map exchange)",
        )
        p.add_argument(
            "--gossip-tokens",
            type=float,
            default=0.0,
            metavar="B",
            help="GLAP only: token-account flow control — refill each "
            "PM's byte budget by B per round and defer exchanges it "
            "cannot afford (default 0 = no throttling)",
        )
        p.add_argument(
            "--gossip-token-capacity",
            type=float,
            default=None,
            metavar="C",
            help="with --gossip-tokens, cap the token account at C bytes "
            "(default: 4x the per-round budget)",
        )

    p_run = sub.add_parser("run", help="run one policy on one scenario")
    add_scenario_args(p_run)
    p_run.add_argument("--policy", choices=POLICY_NAMES, default="GLAP")
    p_run.add_argument(
        "--trace",
        type=str,
        nargs="?",
        const="trace.jsonl",
        default=None,
        metavar="PATH",
        help="write a JSONL event trace (default path: trace.jsonl)",
    )
    p_run.add_argument(
        "--profile",
        action="store_true",
        help="print a per-phase wall-time breakdown and record it in the "
        "benchmark summary",
    )
    p_run.add_argument(
        "--telemetry",
        action="store_true",
        help="record per-round counters/gauges (messages, migrations, "
        "TD error, Q-table convergence); serialised into the benchmark "
        "summary and any checkpoint, bit-identical to an untelemetered run",
    )
    p_run.add_argument(
        "--convergence-every",
        type=int,
        default=10,
        metavar="K",
        help="with --telemetry, sample the Q-table cosine-similarity "
        "gauge every K rounds (default 10)",
    )
    p_run.add_argument(
        "--bench-out",
        type=str,
        default=None,
        metavar="PATH",
        help="write a schema-versioned benchmark summary "
        "(default BENCH_run.json when --profile is given)",
    )
    p_run.add_argument(
        "--checkpoint",
        type=str,
        default=None,
        metavar="PATH",
        help="write a resumable checkpoint of complete run state here "
        "(atomically; at minimum once, at the end of the run)",
    )
    p_run.add_argument(
        "--checkpoint-every",
        type=int,
        default=None,
        metavar="N",
        help="also checkpoint every N evaluation rounds (requires "
        "--checkpoint)",
    )
    p_run.add_argument(
        "--resume-from",
        type=str,
        default=None,
        metavar="PATH",
        help="resume from a checkpoint instead of starting fresh; the "
        "scenario flags are ignored (the checkpoint carries them) and "
        "the finished run is bit-identical to an uninterrupted one",
    )
    p_run.add_argument(
        "--shards",
        type=int,
        default=None,
        metavar="K",
        help="partition the PMs into K contiguous shards and keep the "
        "in-process federation ledger over them (intra/inter-shard "
        "messages and migrations as shard/* telemetry); accounting only, "
        "so results are bit-identical at any K.  A scenario flag: "
        "ignored with --resume-from, which runs at the checkpoint's K",
    )
    p_run.add_argument(
        "--wan-factor",
        type=float,
        default=0.25,
        metavar="X",
        help="with --shards, extra WAN energy surcharge for inter-shard "
        "migrations as a fraction of intra-DC migration energy "
        "(accounting only; default 0.25).  A scenario flag, like --shards",
    )
    p_run.add_argument(
        "--heartbeat",
        type=str,
        nargs="?",
        const="heartbeat.jsonl",
        default=None,
        metavar="PATH",
        help="stream one JSONL heartbeat record per cadence tick for "
        "`glap watch` (default path: heartbeat.jsonl; implies "
        "--telemetry; a resumed run continues the same file)",
    )
    p_run.add_argument(
        "--heartbeat-every",
        type=int,
        default=1,
        metavar="N",
        help="heartbeat cadence in rounds (default 1; raise for large "
        "cells where per-round appends are noise)",
    )
    p_run.add_argument(
        "--postmortem",
        type=str,
        nargs="?",
        const="postmortem.json",
        default=None,
        metavar="PATH",
        help="install the flight recorder: on invariant violation, "
        "unhandled exception or SIGTERM/SIGINT, dump a post-mortem "
        "bundle here (default postmortem.json; implied, with a path "
        "derived from the heartbeat's, when --heartbeat is given)",
    )
    add_gossip_bw_args(p_run)

    p_cmp = sub.add_parser("compare", help="run all policies on one scenario")
    add_scenario_args(p_cmp)
    p_cmp.add_argument("--reps", type=int, default=1, help="repetitions")

    p_sweep = sub.add_parser("sweep", help="run the scaled scenario grid")
    p_sweep.add_argument("--sizes", type=int, nargs="+", default=[30, 60])
    p_sweep.add_argument("--ratios", type=int, nargs="+", default=[2, 3, 4])
    p_sweep.add_argument("--rounds", type=int, default=180)
    p_sweep.add_argument("--warmup", type=int, default=180)
    p_sweep.add_argument("--reps", type=int, default=2)
    p_sweep.add_argument("--out", type=str, default=None, help="JSON output path")
    p_sweep.add_argument(
        "--bench-out",
        type=str,
        default=None,
        metavar="PATH",
        help="write a kind=sweep benchmark summary (per-cell timings/metrics)",
    )
    p_sweep.add_argument(
        "--store",
        type=str,
        default=None,
        metavar="DIR",
        help="persist each (scenario, policy, seed) unit's result to this "
        "directory as it completes, enabling --resume",
    )
    p_sweep.add_argument(
        "--checkpoint-every",
        type=int,
        default=None,
        metavar="N",
        help="checkpoint in-flight units every N evaluation rounds into "
        "the store (requires --store)",
    )
    p_sweep.add_argument(
        "--resume",
        action="store_true",
        help="skip units already completed in --store and continue partial "
        "ones from their latest checkpoint; merged results equal a "
        "from-scratch sweep",
    )
    add_jobs_arg(p_sweep)
    add_gossip_bw_args(p_sweep)

    p_chaos = sub.add_parser(
        "chaos",
        help="fault-injection sweep: message loss / churn / partition grids "
        "with per-round invariant checking",
    )
    add_scenario_args(p_chaos)
    p_chaos.add_argument("--reps", type=int, default=1, help="repetitions")
    p_chaos.add_argument(
        "--loss",
        type=float,
        nargs="+",
        default=[0.0, 0.1, 0.3],
        help="message-loss levels, one sweep per level",
    )
    p_chaos.add_argument(
        "--churn",
        type=float,
        default=0.0,
        help="per-node per-round crash probability (crashed nodes restart "
        "after --churn-downtime rounds)",
    )
    p_chaos.add_argument("--churn-downtime", type=int, default=5,
                         help="rounds a churned node stays down")
    p_chaos.add_argument(
        "--partition-rounds",
        type=int,
        nargs=2,
        metavar=("START", "END"),
        default=None,
        help="partition the network over [START, END) simulation rounds",
    )
    p_chaos.add_argument("--partition-groups", type=int, default=2,
                         help="number of partition groups")
    p_chaos.add_argument(
        "--policies", nargs="+", choices=POLICY_NAMES, default=list(POLICY_NAMES)
    )
    p_chaos.add_argument("--out", type=str, default=None, help="JSON output path")
    add_jobs_arg(p_chaos)

    p_fig = sub.add_parser("figures", help="regenerate one paper figure/table")
    p_fig.add_argument(
        "--figure",
        choices=["5", "6", "7", "8", "9", "10", "table1"],
        required=True,
    )
    p_fig.add_argument("--pms", type=int, default=40)
    p_fig.add_argument("--rounds", type=int, default=180)
    p_fig.add_argument("--warmup", type=int, default=180)
    p_fig.add_argument("--reps", type=int, default=1)
    add_jobs_arg(p_fig)

    p_report = sub.add_parser(
        "report", help="re-analyse an archived sweep (no simulation)"
    )
    p_report.add_argument("--results", type=str, required=True,
                          help="sweep JSON written by `glap sweep --out`")

    p_trace = sub.add_parser("trace", help="generate a workload trace CSV")
    p_trace.add_argument("--vms", type=int, default=100)
    p_trace.add_argument("--rounds", type=int, default=180)
    p_trace.add_argument("--seed", type=int, default=0)
    p_trace.add_argument("--out", type=str, required=True)

    p_bench = sub.add_parser(
        "bench-compare",
        help="diff two benchmark summaries; exit non-zero on regression",
    )
    p_bench.add_argument("baseline", type=str, help="baseline summary JSON")
    p_bench.add_argument("current", type=str, help="current summary JSON")
    p_bench.add_argument(
        "--tolerance",
        type=float,
        default=0.15,
        help="allowed relative timing growth (default 0.15 = +15%%); "
        "metric drift always fails regardless",
    )
    p_bench.add_argument(
        "--skip-timings",
        action="store_true",
        help="compare metrics/context only (machine-independent gate)",
    )
    p_bench.add_argument(
        "--update-baseline",
        action="store_true",
        help="overwrite BASELINE with CURRENT (after validating it) and exit 0",
    )
    p_bench.add_argument(
        "--ignore-telemetry",
        type=str,
        nargs="+",
        default=[],
        metavar="PREFIX",
        help="exempt telemetry counters/gauges whose name starts with any "
        "PREFIX from the drift gate (e.g. 'shard/' when diffing runs at "
        "different --shards counts)",
    )

    p_an = sub.add_parser(
        "analyze",
        help="run-health report from a trace and/or benchmark summary; "
        "exit 0 healthy / 1 violations / 2 usage error",
    )
    p_an.add_argument(
        "target",
        type=str,
        nargs="?",
        default=None,
        help="JSONL trace or benchmark-summary JSON (auto-detected)",
    )
    p_an.add_argument(
        "--summary",
        type=str,
        default=None,
        metavar="PATH",
        help="fold this benchmark summary's telemetry section into the "
        "trace analysis (convergence curve, message conservation)",
    )
    p_an.add_argument(
        "--min-convergence",
        type=float,
        default=None,
        metavar="X",
        help="fail (exit 1) unless the final Q-table cosine-similarity "
        "gauge is at least X",
    )
    p_an.add_argument(
        "--json",
        type=str,
        default=None,
        metavar="PATH",
        help="also write the machine-readable health report here",
    )
    p_an.add_argument(
        "--diff",
        type=str,
        nargs=2,
        metavar=("A", "B"),
        default=None,
        help="compare two traces instead; exit 1 when they differ",
    )

    p_watch = sub.add_parser(
        "watch",
        help="tail a live run's heartbeat stream: health verdict, progress, "
        "ETA, overload curve; "
        "exit 0 healthy / 1 unhealthy / 2 usage error",
    )
    p_watch.add_argument(
        "target",
        type=str,
        help="heartbeat JSONL file, or a run directory containing "
        "heartbeat.jsonl",
    )
    p_watch.add_argument(
        "--once",
        action="store_true",
        help="report once and exit (default: refresh until the run "
        "completes or aborts)",
    )
    p_watch.add_argument(
        "--json",
        type=str,
        nargs="?",
        const="-",
        default=None,
        metavar="PATH",
        help="emit the machine-readable report instead of the rendering "
        "(to PATH, or stdout when no path is given)",
    )
    p_watch.add_argument(
        "--interval",
        type=float,
        default=5.0,
        metavar="S",
        help="refresh period in seconds while following (default 5)",
    )
    p_watch.add_argument(
        "--min-convergence",
        type=float,
        default=None,
        metavar="X",
        help="report unhealthy (exit 1) unless the latest Q-table "
        "cosine-similarity gauge is at least X",
    )

    return parser


def _glap_policy_kwargs(args: argparse.Namespace) -> dict:
    """Constructor kwargs for GLAP from the bandwidth flags.

    Empty when every flag is at its default, so the default CLI path
    constructs the policy exactly as before (bit-identical runs).
    """
    if (
        args.q_partitions == 1
        and args.gossip_tokens == 0.0
        and args.gossip_token_capacity is None
    ):
        return {}
    from repro.core.glap import GlapConfig

    return {
        "config": GlapConfig(
            q_partitions=args.q_partitions,
            gossip_tokens=args.gossip_tokens,
            gossip_token_capacity=args.gossip_token_capacity,
        )
    }


def _scenario_from_args(args: argparse.Namespace, reps: int = 1) -> Scenario:
    return Scenario(
        n_pms=args.pms,
        ratio=args.ratio,
        rounds=args.rounds,
        warmup_rounds=args.warmup,
        repetitions=reps,
        base_seed=args.seed,
        trace_params=GoogleTraceParams(
            rounds_per_day=max(2, min(args.rounds, args.warmup))
        ),
    )


def _cmd_run(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.obs.heartbeat import HeartbeatWriter
    from repro.obs.profiler import PhaseProfiler
    from repro.obs.recorder import FlightRecorder
    from repro.obs.summary import run_summary, write_summary
    from repro.obs.telemetry import TelemetryRegistry
    from repro.obs.tracer import JsonlTracer

    scenario = _scenario_from_args(args)
    if args.shards is not None:
        scenario = replace(
            scenario,
            sharding=ShardConfig(n_shards=args.shards, wan_factor=args.wan_factor),
        )
    tracer = JsonlTracer(args.trace) if args.trace is not None else None
    profiler = PhaseProfiler() if args.profile else None
    heartbeat = (
        HeartbeatWriter(args.heartbeat, every=args.heartbeat_every)
        if args.heartbeat is not None
        else None
    )
    postmortem = args.postmortem
    if postmortem is None and args.heartbeat is not None:
        # A heartbeat-observed run gets the flight recorder for free:
        # the bundle lands next to the stream it annotates.
        hb = Path(args.heartbeat)
        postmortem = str(hb.with_name(hb.stem + ".postmortem.json"))
    recorder = FlightRecorder(postmortem) if postmortem is not None else None
    telemetry = (
        TelemetryRegistry(gauge_every=args.convergence_every)
        # The heartbeat's counter deltas and live gauges come from the
        # telemetry registry, so --heartbeat implies --telemetry.
        if args.telemetry or heartbeat is not None
        else None
    )
    policy_kwargs = (
        _glap_policy_kwargs(args) if args.policy.lower() == "glap" else {}
    )
    common = dict(
        tracer=tracer,
        profiler=profiler,
        telemetry=telemetry,
        checkpoint_every=args.checkpoint_every,
        heartbeat=heartbeat,
        recorder=recorder,
    )
    start = time.perf_counter()
    try:
        # The same flags must be repeated on resume: policy config is
        # caller provenance, not checkpoint state.
        policy = make_policy(args.policy, **policy_kwargs)
        if args.resume_from is not None:
            result = resume_policy(
                args.resume_from, policy, checkpoint_to=args.checkpoint, **common
            )
        else:
            result = run_policy(
                scenario, policy, seed=scenario.seed_of(0),
                checkpoint_path=args.checkpoint, **common,
            )
    finally:
        if tracer is not None:
            tracer.close()
    wall_s = time.perf_counter() - start
    print(result)
    print(
        f"  SLAVO={result.slavo:.3g}  SLALM={result.slalm:.3g}  "
        f"energy={result.migration_energy_j:.0f} J  "
        f"BFD baseline={result.bfd_baseline_pms} PMs"
    )
    if tracer is not None:
        print(f"wrote {tracer.events_emitted} events to {args.trace}")
    if heartbeat is not None:
        print(
            f"heartbeat: {heartbeat.ticks_written} ticks to {heartbeat.path} "
            f"(watch with `glap watch {heartbeat.path}`)"
        )
    if args.checkpoint is not None:
        print(f"wrote checkpoint {args.checkpoint}")
    if profiler is not None:
        print()
        print(profiler.format())
    if telemetry is not None:
        totals = telemetry.totals()
        line = (
            f"telemetry: {len(telemetry.rounds)} rounds, "
            f"{totals.get('net/sent', 0.0):.0f} msgs sent, "
            f"{totals.get('net/dropped', 0.0):.0f} dropped"
        )
        final_cos = telemetry.gauge_final("glap/q_cosine")
        if final_cos is not None:
            line += f", Q-cosine {final_cos:.4f}"
        print(line)
    bench_out = args.bench_out
    if bench_out is None and args.profile:
        bench_out = "BENCH_run.json"
    if bench_out is not None:
        summary = run_summary(
            result,
            wall_s=wall_s,
            profiler=profiler,
            warmup_rounds=scenario.warmup_rounds,
            trace_events=tracer.events_emitted if tracer is not None else None,
            telemetry=telemetry,
        )
        write_summary(summary, bench_out)
        print(f"wrote {bench_out}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    scenario = _scenario_from_args(args, reps=args.reps)
    results = run_sweep([scenario])
    for name in POLICY_NAMES:
        for result in results.of(scenario, name):
            print(result)
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    scenarios = scaled_grid(
        sizes=tuple(args.sizes),
        ratios=tuple(args.ratios),
        rounds=args.rounds,
        warmup_rounds=args.warmup,
        repetitions=args.reps,
    )
    glap_kwargs = _glap_policy_kwargs(args)
    results = run_sweep(
        scenarios,
        jobs=args.jobs,
        bench_out=args.bench_out,
        store_dir=args.store,
        checkpoint_every=args.checkpoint_every,
        resume=args.resume,
        policy_kwargs={"GLAP": glap_kwargs} if glap_kwargs else None,
    )
    print(format_figure6(figure6_overload_fraction(results)))
    print()
    print(format_table1(table1_sla(results), results.policies))
    print()
    from repro.experiments.expectations import check_shape, format_shape_report

    print(format_shape_report(check_shape(results)))
    if args.bench_out:
        print(f"\nwrote {args.bench_out}")
    if args.out:
        from repro.experiments.store import save_sweep

        save_sweep(results, args.out)
        print(f"\nwrote {args.out} (reload with `glap report --results ...`)")
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    import numpy as np

    scenario = _scenario_from_args(args, reps=args.reps)
    variants = chaos_variants(
        scenario,
        loss_levels=tuple(args.loss),
        churn_probability=args.churn,
        churn_downtime_rounds=args.churn_downtime,
        partition_window=(
            tuple(args.partition_rounds) if args.partition_rounds else None
        ),
        partition_groups=args.partition_groups,
    )
    policies = tuple(args.policies)
    header = (
        f"{'faults':28s} {'policy':9s} {'SLAV':>10s} {'migrations':>11s} "
        f"{'active':>7s} {'dropped%':>9s} {'crashes':>8s} {'inv.rounds':>10s}"
    )
    print("Chaos sweep — medians over repetitions; invariants checked every round")
    print(header)
    print("-" * len(header))
    archive = []
    for label, chaos_scenario in variants:
        results = run_sweep([chaos_scenario], policies=policies, jobs=args.jobs)
        for policy in policies:
            runs = results.of(chaos_scenario, policy)
            sent = sum(r.extras.get("messages_sent", 0.0) for r in runs)
            dropped = sum(r.extras.get("messages_dropped", 0.0) for r in runs)
            drop_pct = 100.0 * dropped / sent if sent else 0.0
            print(
                f"{label:28s} {policy:9s} "
                f"{float(np.median([r.slav for r in runs])):10.3e} "
                f"{float(np.median([r.total_migrations for r in runs])):11.0f} "
                f"{float(np.median([r.final_active for r in runs])):7.0f} "
                f"{drop_pct:9.1f} "
                f"{sum(r.extras.get('fault_crashes', 0.0) for r in runs):8.0f} "
                f"{sum(r.extras.get('invariant_rounds_checked', 0.0) for r in runs):10.0f}"
            )
            for r in runs:
                archive.append(
                    {
                        "faults": label,
                        "policy": policy,
                        "seed": r.seed,
                        "slavo": r.slavo,
                        "slalm": r.slalm,
                        "slav": r.slav,
                        "total_migrations": r.total_migrations,
                        "migration_energy_j": r.migration_energy_j,
                        "dc_energy_j": r.dc_energy_j,
                        "final_active": r.final_active,
                        "final_overloaded": r.final_overloaded,
                        "extras": dict(r.extras),
                    }
                )
    print(
        "\nall runs completed with every per-round invariant intact "
        "(violations raise and abort the sweep)"
    )
    if args.out:
        import json as _json
        from pathlib import Path

        Path(args.out).write_text(_json.dumps({"format": 1, "runs": archive}))
        print(f"wrote {args.out}")
    return 0


def _cmd_figures(args: argparse.Namespace) -> int:
    scenario = Scenario(
        n_pms=args.pms,
        ratio=2,
        rounds=args.rounds,
        warmup_rounds=args.warmup,
        repetitions=args.reps,
        trace_params=GoogleTraceParams(
            rounds_per_day=max(2, min(args.rounds, args.warmup))
        ),
    )
    if args.figure == "5":
        print(format_figure5(figure5_convergence(scenario)))
        return 0
    scenarios = scaled_grid(
        sizes=(args.pms,),
        rounds=args.rounds,
        warmup_rounds=args.warmup,
        repetitions=args.reps,
    )
    results = run_sweep(scenarios, jobs=args.jobs)
    if args.figure == "6":
        print(format_figure6(figure6_overload_fraction(results)))
    elif args.figure == "7":
        print(
            format_percentile_rows(
                figure7_overloaded_pms(results), "Figure 7 — overloaded PMs per round"
            )
        )
    elif args.figure == "8":
        print(
            format_percentile_rows(
                figure8_migrations(results), "Figure 8 — migrations per round"
            )
        )
    elif args.figure == "9":
        print(format_figure9(figure9_cumulative_migrations(results)))
    elif args.figure == "10":
        print(format_figure10(figure10_energy_overhead(results)))
    elif args.figure == "table1":
        print(format_table1(table1_sla(results), results.policies))
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.experiments.expectations import check_shape, format_shape_report
    from repro.experiments.store import load_sweep

    results = load_sweep(args.results)
    print(format_figure6(figure6_overload_fraction(results)))
    print()
    print(
        format_percentile_rows(
            figure7_overloaded_pms(results), "Figure 7 — overloaded PMs per round"
        )
    )
    print()
    print(format_table1(table1_sla(results), results.policies))
    print()
    print(format_shape_report(check_shape(results)))
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    import numpy as np

    from repro.traces.loader import write_trace_csv

    trace = GoogleLikeTraceGenerator().generate(
        args.vms, args.rounds, np.random.default_rng(args.seed)
    )
    write_trace_csv(trace, args.out)
    print(f"wrote {args.vms} VMs x {args.rounds} rounds to {args.out}")
    return 0


def _cmd_bench_compare(args: argparse.Namespace) -> int:
    import shutil

    from repro.obs.compare import compare_summaries, format_findings
    from repro.obs.summary import load_summary

    try:
        current = load_summary(args.current)
        if args.update_baseline:
            shutil.copyfile(args.current, args.baseline)
            print(f"updated baseline {args.baseline} from {args.current}")
            return 0
        baseline = load_summary(args.baseline)
    except (OSError, ValueError) as exc:
        print(f"bench-compare: {exc}", file=sys.stderr)
        return 2
    findings = compare_summaries(
        baseline,
        current,
        tolerance=args.tolerance,
        compare_timings=not args.skip_timings,
        ignore_telemetry=args.ignore_telemetry,
    )
    print(format_findings(findings, tolerance=args.tolerance))
    return 1 if any(f.fails for f in findings) else 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    import json as _json
    from pathlib import Path

    from repro.obs.analytics import (
        diff_frames,
        format_diff,
        format_health_report,
        health_report,
        load_frame,
    )
    from repro.obs.summary import load_summary

    def usage(message: str) -> int:
        print(f"analyze: {message}", file=sys.stderr)
        return 2

    if args.diff is not None:
        if args.target is not None or args.summary is not None:
            return usage("--diff takes exactly two traces and no other input")
        if args.min_convergence is not None:
            return usage("--min-convergence does not apply to --diff")
        try:
            frame_a = load_frame(args.diff[0])
            frame_b = load_frame(args.diff[1])
        except (OSError, ValueError) as exc:
            return usage(str(exc))
        diff = diff_frames(frame_a, frame_b)
        print(format_diff(diff))
        if args.json is not None:
            Path(args.json).write_text(_json.dumps(diff, indent=2, sort_keys=True))
            print(f"wrote {args.json}")
        return 0 if diff["identical"] else 1

    if args.target is None:
        return usage("a trace or summary path is required (or use --diff A B)")

    # A benchmark summary is a single JSON document that load_summary
    # validates; anything else is treated as a JSONL event trace.
    frame = None
    telemetry = None
    try:
        try:
            telemetry = load_summary(args.target).get("telemetry")
            if telemetry is None:
                return usage(
                    f"{args.target} is a benchmark summary without a "
                    "telemetry section (re-run with --telemetry), and no "
                    "trace was given"
                )
        except ValueError:
            frame = load_frame(args.target)
        if args.summary is not None:
            telemetry = load_summary(args.summary).get("telemetry")
            if telemetry is None:
                return usage(
                    f"{args.summary} has no telemetry section "
                    "(re-run with --telemetry)"
                )
    except (OSError, ValueError) as exc:
        return usage(str(exc))

    report = health_report(
        frame=frame, telemetry=telemetry, min_convergence=args.min_convergence
    )
    print(format_health_report(report, frame=frame))
    if args.json is not None:
        Path(args.json).write_text(_json.dumps(report, indent=2, sort_keys=True))
        print(f"wrote {args.json}")
    return 0 if report["healthy"] else 1


def _cmd_watch(args: argparse.Namespace) -> int:
    import json as _json
    from pathlib import Path

    from repro.obs.watch import (
        format_watch_report,
        resolve_heartbeat_path,
        watch_report_from_path,
    )

    def usage(message: str) -> int:
        print(f"watch: {message}", file=sys.stderr)
        return 2

    if args.interval <= 0:
        return usage("--interval must be > 0")
    path = resolve_heartbeat_path(args.target)
    if not path.is_file():
        return usage(f"{path}: no heartbeat file")

    def build():
        return watch_report_from_path(path, min_convergence=args.min_convergence)

    try:
        report = build()
        if not args.once:
            # Follow mode: re-render until a terminal marker appears,
            # then fall through to the final report below.
            try:
                while not (
                    report["markers"]["complete"] or report["markers"]["aborted"]
                ):
                    print(format_watch_report(report))
                    print(flush=True)
                    time.sleep(args.interval)
                    report = build()
            except KeyboardInterrupt:
                print()
    except (OSError, ValueError) as exc:
        # A malformed stream (no header, interior corruption) is a
        # usage error: the target is not a heartbeat file.
        return usage(str(exc))

    if args.json is not None:
        text = _json.dumps(report, indent=2, sort_keys=True)
        if args.json == "-":
            print(text)
        else:
            Path(args.json).write_text(text)
            print(f"wrote {args.json}")
    else:
        print(format_watch_report(report))
    return 0 if report["healthy"] else 1


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "compare": _cmd_compare,
        "sweep": _cmd_sweep,
        "chaos": _cmd_chaos,
        "figures": _cmd_figures,
        "report": _cmd_report,
        "trace": _cmd_trace,
        "bench-compare": _cmd_bench_compare,
        "analyze": _cmd_analyze,
        "watch": _cmd_watch,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
