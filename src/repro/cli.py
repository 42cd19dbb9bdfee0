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
use, so all three slot into CI gates directly.  Flag combinations a
run would refuse (``sweep --resume`` without ``--store``, say) exit 2
at parse time, before anything runs.

Every command prints plain text; JSON output goes to ``--out`` files so
results can be post-processed.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import replace
from functools import partial
from typing import List, Optional

from repro.experiments.expectations import check_shape, format_shape_report
from repro.experiments.figures import EXHIBITS
from repro.experiments.parallel import SweepResults, run_sweep
from repro.experiments.runner import (
    POLICY_NAMES,
    make_policy,
    resume_policy,
    run_policy,
)
from repro.experiments.scenarios import Scenario, ShardConfig, chaos_variants, scaled_grid
from repro.experiments.store import _run_to_dict, load_sweep, save_sweep
from repro.traces.google import GoogleLikeTraceGenerator
from repro.util.io import atomic_write_json

__all__ = ["main", "build_parser"]

#: Flags that mean the same thing in every subcommand that takes them,
#: each declared once; a subcommand may change only the default.
_SHARED_FLAGS = {
    "--pms": dict(type=int, default=60, help="number of PMs"),
    "--ratio": dict(type=int, default=3, help="VM:PM ratio"),
    "--rounds": dict(type=int, default=180, help="evaluation rounds"),
    "--warmup": dict(type=int, default=180, help="warmup rounds"),
    "--seed": dict(type=int, default=2016, help="base seed"),
    "--reps": dict(type=int, default=1, help="repetitions"),
    "--out": dict(type=str, default=None, help="JSON output path"),
    "--bench-out": dict(
        type=str,
        default=None,
        metavar="PATH",
        help="write a schema-versioned benchmark summary (a sweep's holds "
        "per-cell timings/metrics; `run --profile` defaults it to BENCH_run.json)",
    ),
    "--checkpoint-every": dict(
        type=int,
        default=None,
        metavar="N",
        help="also checkpoint every N evaluation rounds: a run to "
        "--checkpoint (or its --resume-from file), a sweep's in-flight "
        "units into --store",
    ),
    "--jobs": dict(
        type=int,
        default=None,
        help="parallel worker processes (0 = one per CPU; default: "
        "$REPRO_JOBS or 1; results are identical at any value)",
    ),
    "--q-partitions": dict(
        type=int,
        default=1,
        metavar="K",
        help="GLAP only: slice Q-maps into K keyed partitions and "
        "gossip one rotating partition per contact (default 1 = the "
        "paper's full-union-map exchange)",
    ),
    "--gossip-tokens": dict(
        type=float,
        default=0.0,
        metavar="B",
        help="GLAP only: token-account flow control — refill each "
        "PM's byte budget by B per round and defer exchanges it "
        "cannot afford (default 0 = no throttling)",
    ),
    "--gossip-token-capacity": dict(
        type=float,
        default=None,
        metavar="C",
        help="with --gossip-tokens, cap the token account at C bytes "
        "(default: 4x the per-round budget)",
    ),
    "--min-convergence": dict(
        type=float,
        default=None,
        metavar="X",
        help="unhealthy (exit 1) unless the latest Q-table "
        "cosine-similarity gauge is at least X",
    ),
}
_SCENARIO_FLAGS = ("--pms", "--ratio", "--rounds", "--warmup", "--seed")
_GOSSIP_BW_FLAGS = ("--q-partitions", "--gossip-tokens", "--gossip-token-capacity")


def _add_shared(p: argparse.ArgumentParser, *flags: str, **defaults) -> None:
    """Declare ``flags`` from the shared table; ``defaults`` (keyed by
    dest) overrides a default for this subcommand."""
    for flag in flags:
        spec = _SHARED_FLAGS[flag]
        dest = flag[2:].replace("-", "_")
        p.add_argument(flag, **{**spec, "default": defaults.get(dest, spec["default"])})


def _path_flag(
    p: argparse.ArgumentParser, flag: str, help: str, bare: Optional[str] = None,
    metavar: str = "PATH",
) -> None:
    """A path-valued flag, None when absent.  With ``bare``, the path may
    be left out: the flag alone then means ``bare``."""
    optional = {} if bare is None else {"nargs": "?", "const": bare}
    p.add_argument(flag, type=str, default=None, metavar=metavar, help=help, **optional)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="glap",
        description="GLAP (CLUSTER 2016) reproduction: distributed dynamic "
        "workload consolidation through gossip-based learning.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one policy on one scenario")
    _add_shared(p_run, *_SCENARIO_FLAGS)
    p_run.add_argument("--policy", choices=POLICY_NAMES, default="GLAP")
    _path_flag(
        p_run, "--trace", "write a JSONL event trace (default path: trace.jsonl)",
        bare="trace.jsonl",
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
    _add_shared(p_run, "--bench-out")
    _path_flag(
        p_run, "--checkpoint",
        "write a resumable checkpoint of complete run state here "
        "(atomically; at minimum once, at the end of the run)",
    )
    _add_shared(p_run, "--checkpoint-every")
    _path_flag(
        p_run, "--resume-from",
        "resume from a checkpoint instead of starting fresh; the "
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
    _path_flag(
        p_run, "--heartbeat",
        "stream one JSONL heartbeat record per cadence tick for "
        "`glap watch` (default path: heartbeat.jsonl; implies "
        "--telemetry; a resumed run continues the same file)",
        bare="heartbeat.jsonl",
    )
    p_run.add_argument(
        "--heartbeat-every",
        type=int,
        default=1,
        metavar="N",
        help="heartbeat cadence in rounds (default 1; raise for large "
        "cells where per-round appends are noise)",
    )
    _path_flag(
        p_run, "--postmortem",
        "install the flight recorder: on invariant violation, "
        "unhandled exception or SIGTERM/SIGINT, dump a post-mortem "
        "bundle here (default postmortem.json; implied, with a path "
        "derived from the heartbeat's, when --heartbeat is given)",
        bare="postmortem.json",
    )
    _add_shared(p_run, *_GOSSIP_BW_FLAGS)

    p_cmp = sub.add_parser("compare", help="run all policies on one scenario")
    _add_shared(p_cmp, *_SCENARIO_FLAGS, "--reps")

    p_sweep = sub.add_parser("sweep", help="run the scaled scenario grid")
    p_sweep.add_argument("--sizes", type=int, nargs="+", default=[30, 60])
    p_sweep.add_argument("--ratios", type=int, nargs="+", default=[2, 3, 4])
    _add_shared(p_sweep, "--rounds", "--warmup", "--reps", "--out", "--bench-out", reps=2)
    _path_flag(
        p_sweep, "--store",
        "persist each (scenario, policy, seed) unit's result to this "
        "directory as it completes, enabling --resume",
        metavar="DIR",
    )
    _add_shared(p_sweep, "--checkpoint-every")
    p_sweep.add_argument(
        "--resume",
        action="store_true",
        help="skip units already completed in --store and continue partial "
        "ones from their latest checkpoint; merged results equal a "
        "from-scratch sweep",
    )
    _add_shared(p_sweep, "--jobs", *_GOSSIP_BW_FLAGS)

    p_chaos = sub.add_parser(
        "chaos",
        help="fault-injection sweep: message loss / churn / partition grids "
        "with per-round invariant checking",
    )
    _add_shared(p_chaos, *_SCENARIO_FLAGS, "--reps")
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
    _add_shared(p_chaos, "--out", "--jobs")

    p_fig = sub.add_parser("figures", help="regenerate one paper figure/table")
    p_fig.add_argument("--figure", choices=list(EXHIBITS), required=True)
    _add_shared(p_fig, "--pms", "--rounds", "--warmup", "--reps", "--jobs", pms=40)

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
    _path_flag(
        p_an, "--summary",
        "fold this benchmark summary's telemetry section into the "
        "trace analysis (convergence curve, message conservation)",
    )
    _add_shared(p_an, "--min-convergence")
    _path_flag(p_an, "--json", "also write the machine-readable health report here")
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
    _path_flag(
        p_watch, "--json",
        "emit the machine-readable report instead of the rendering "
        "(to PATH, or stdout when no path is given)",
        bare="-",
    )
    p_watch.add_argument(
        "--interval",
        type=float,
        default=5.0,
        metavar="S",
        help="refresh period in seconds while following (default 5)",
    )
    _add_shared(p_watch, "--min-convergence")

    return parser


def _flag_misuse(args: argparse.Namespace) -> Optional[str]:
    """The flag combinations a run would refuse, named before it starts.

    A ``ValueError`` raised once a run is under way stays a traceback:
    by then it is a bug, not a usage error.
    """
    every = vars(args).get("checkpoint_every")
    if every is not None and every < 1:
        return "--checkpoint-every must be >= 1"
    if args.command == "sweep" and args.store is None and (args.resume or every):
        return f"{'--resume' if args.resume else '--checkpoint-every'} requires --store"
    if args.command == "run":
        if every is not None and args.checkpoint is None and args.resume_from is None:
            return "--checkpoint-every requires --checkpoint or --resume-from"
        if args.heartbeat is not None and args.heartbeat_every < 1:
            return "--heartbeat-every must be >= 1"
    return None


def _glap_kwargs(args: argparse.Namespace) -> dict:
    """GLAP's constructor kwargs from the bandwidth flags; at their
    defaults they build ``GlapConfig()``, the paper's full-map exchange."""
    from repro.core.glap import GlapConfig

    return {
        "config": GlapConfig(
            q_partitions=args.q_partitions,
            gossip_tokens=args.gossip_tokens,
            gossip_token_capacity=args.gossip_token_capacity,
        )
    }


def _scenarios(args: argparse.Namespace, **grid) -> List[Scenario]:
    """The ``scaled_grid`` (``grid``: its ``sizes`` and ``ratios``) the
    scenario flags describe; the grid's diurnal compression rule lives
    in :func:`scaled_grid` alone."""
    given = vars(args)
    return scaled_grid(
        rounds=args.rounds,
        warmup_rounds=args.warmup,
        repetitions=given.get("reps", 1),  # `run` is one repetition
        base_seed=given.get("seed", Scenario.base_seed),
        **grid,
    )


def _scenario_from_args(args: argparse.Namespace) -> Scenario:
    return _scenarios(args, sizes=(args.pms,), ratios=(args.ratio,))[0]


def _run_sinks(args: argparse.Namespace) -> dict:
    """The sinks the ``run`` flags switch on, keyed as ``run_policy``
    takes them."""
    from pathlib import Path

    from repro.obs.heartbeat import HeartbeatWriter
    from repro.obs.profiler import PhaseProfiler
    from repro.obs.recorder import FlightRecorder
    from repro.obs.telemetry import TelemetryRegistry
    from repro.obs.tracer import JsonlTracer

    postmortem = args.postmortem
    if postmortem is None and args.heartbeat is not None:
        # A heartbeat-observed run gets the flight recorder for free:
        # the bundle lands next to the stream it annotates.
        hb = Path(args.heartbeat)
        postmortem = str(hb.with_name(hb.stem + ".postmortem.json"))
    return dict(
        tracer=JsonlTracer(args.trace) if args.trace is not None else None,
        profiler=PhaseProfiler() if args.profile else None,
        heartbeat=(
            HeartbeatWriter(args.heartbeat, every=args.heartbeat_every)
            if args.heartbeat is not None
            else None
        ),
        recorder=FlightRecorder(postmortem) if postmortem is not None else None,
        telemetry=(
            TelemetryRegistry(gauge_every=args.convergence_every)
            # The heartbeat's counter deltas and live gauges come from the
            # telemetry registry, so --heartbeat implies --telemetry.
            if args.telemetry or args.heartbeat is not None
            else None
        ),
    )


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.obs.summary import run_summary, write_summary

    scenario = _scenario_from_args(args)
    if args.shards is not None:
        scenario = replace(
            scenario,
            sharding=ShardConfig(n_shards=args.shards, wan_factor=args.wan_factor),
        )
    sinks = _run_sinks(args)
    tracer, heartbeat, telemetry = sinks["tracer"], sinks["heartbeat"], sinks["telemetry"]
    start = time.perf_counter()
    try:
        # The same flags must be repeated on resume: policy config is
        # caller provenance, not checkpoint state.
        policy = make_policy(
            args.policy, **(_glap_kwargs(args) if args.policy == "GLAP" else {})
        )
        if args.resume_from is not None:
            result = resume_policy(
                args.resume_from, policy, checkpoint_to=args.checkpoint,
                checkpoint_every=args.checkpoint_every, **sinks,
            )
        else:
            result = run_policy(
                scenario, policy, seed=scenario.seed_of(0),
                checkpoint_path=args.checkpoint,
                checkpoint_every=args.checkpoint_every, **sinks,
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
    if args.profile:
        print()
        print(sinks["profiler"].format())
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
    bench_out = args.bench_out or ("BENCH_run.json" if args.profile else None)
    if bench_out is not None:
        warmup_rounds = scenario.warmup_rounds
        if args.resume_from is not None:  # the checkpoint's scenario ran, not the flags'
            from repro.checkpoint import load_checkpoint

            warmup_rounds = load_checkpoint(args.resume_from)["scenario"]["warmup_rounds"]
        summary = run_summary(
            result,
            wall_s=wall_s,
            profiler=sinks["profiler"],
            warmup_rounds=warmup_rounds,
            trace_events=tracer.events_emitted if tracer is not None else None,
            telemetry=telemetry,
        )
        write_summary(summary, bench_out)
        print(f"wrote {bench_out}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    scenario = _scenario_from_args(args)
    results = run_sweep([scenario])
    for name in POLICY_NAMES:
        for result in results.of(scenario, name):
            print(result)
    return 0


def _print_sweep_report(results: SweepResults) -> None:
    """Fig. 6, Fig. 7, Table I and the paper-shape report: what ``sweep``
    prints, and ``report`` reprints from the archive."""
    for figure in ("6", "7", "table1"):
        exhibit = EXHIBITS[figure]
        print(exhibit.formatter(exhibit.driver(results)))
        print()
    print(format_shape_report(check_shape(results)))


def _cmd_sweep(args: argparse.Namespace) -> int:
    results = run_sweep(
        _scenarios(args, sizes=tuple(args.sizes), ratios=tuple(args.ratios)),
        jobs=args.jobs,
        bench_out=args.bench_out,
        store_dir=args.store,
        checkpoint_every=args.checkpoint_every,
        resume=args.resume,
        policy_kwargs={"GLAP": _glap_kwargs(args)},
    )
    _print_sweep_report(results)
    if args.bench_out:
        print(f"\nwrote {args.bench_out}")
    if args.out:
        save_sweep(results, args.out)
        print(f"\nwrote {args.out} (reload with `glap report --results ...`)")
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    import numpy as np

    scenario = _scenario_from_args(args)
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
            archive.extend({"faults": label, **_run_to_dict(r)} for r in runs)
    print(
        "\nall runs completed with every per-round invariant intact "
        "(violations raise and abort the sweep)"
    )
    if args.out:
        atomic_write_json({"format": 1, "runs": archive}, args.out)
        print(f"wrote {args.out}")
    return 0


def _cmd_figures(args: argparse.Namespace) -> int:
    scenarios = _scenarios(args, sizes=(args.pms,))
    exhibit = EXHIBITS[args.figure]
    source = scenarios[0] if args.figure == "5" else run_sweep(scenarios, jobs=args.jobs)
    print(exhibit.formatter(exhibit.driver(source)))
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    _print_sweep_report(load_sweep(args.results))
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


def _usage(args: argparse.Namespace, message: object) -> int:
    """A usage error found past parsing (an unreadable input, say): one
    line on stderr, exit 2."""
    print(f"{args.command}: {message}", file=sys.stderr)
    return 2


def _write_report(report: dict, path: str) -> None:
    atomic_write_json(report, path, indent=2, sort_keys=True)
    print(f"wrote {path}")


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
        return _usage(args, exc)
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
    from repro.obs.analytics import (
        diff_traces,
        format_diff,
        format_health_report,
        health_report,
    )
    from repro.obs.summary import load_summary
    from repro.obs.tracer import read_trace

    if args.diff is not None:
        if args.target is not None or args.summary is not None:
            return _usage(args, "--diff takes exactly two traces and no other input")
        if args.min_convergence is not None:
            return _usage(args, "--min-convergence does not apply to --diff")
        try:
            diff = diff_traces(read_trace(args.diff[0]), read_trace(args.diff[1]))
        except (OSError, ValueError) as exc:
            return _usage(args, exc)
        print(format_diff(diff))
        if args.json is not None:
            _write_report(diff, args.json)
        return 0 if diff["identical"] else 1

    if args.target is None:
        return _usage(args, "a trace or summary path is required (or use --diff A B)")

    # A benchmark summary is a single JSON document that load_summary
    # validates; anything else is treated as a JSONL event trace, read
    # lazily, so a corrupt line surfaces inside health_report below.
    events = None
    telemetry = None
    try:
        try:
            telemetry = load_summary(args.target).get("telemetry")
            if telemetry is None:
                return _usage(
                    args,
                    f"{args.target} is a benchmark summary without a "
                    "telemetry section (re-run with --telemetry), and no "
                    "trace was given"
                )
        except ValueError:
            events = read_trace(args.target)
        if args.summary is not None:
            telemetry = load_summary(args.summary).get("telemetry")
            if telemetry is None:
                return _usage(
                    args,
                    f"{args.summary} has no telemetry section "
                    "(re-run with --telemetry)"
                )
        report = health_report(
            events=events, telemetry=telemetry, min_convergence=args.min_convergence
        )
    except (OSError, ValueError) as exc:
        return _usage(args, exc)

    print(format_health_report(report))
    if args.json is not None:
        _write_report(report, args.json)
    return 0 if report["healthy"] else 1


def _cmd_watch(args: argparse.Namespace) -> int:
    import json

    from repro.obs.watch import (
        format_watch_report,
        resolve_heartbeat_path,
        watch_report_from_path,
    )

    if args.interval <= 0:
        return _usage(args, "--interval must be > 0")
    path = resolve_heartbeat_path(args.target)
    if not path.is_file():
        return _usage(args, f"{path}: no heartbeat file")

    build = partial(watch_report_from_path, path, min_convergence=args.min_convergence)
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
        return _usage(args, exc)

    if args.json == "-":
        print(json.dumps(report, indent=2, sort_keys=True))
    elif args.json is not None:
        _write_report(report, args.json)
    else:
        print(format_watch_report(report))
    return 0 if report["healthy"] else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    misuse = _flag_misuse(args)
    if misuse is not None:
        parser.error(misuse)
    return globals()["_cmd_" + args.command.replace("-", "_")](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
