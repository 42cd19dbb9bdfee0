"""The benchmark's workloads and metric tables — plain data, no imports of
the program, so the parent process (``run.py``) stays small and every
measured cell starts from a cold interpreter.

``BENCHMARK.json`` at the repository root lists exactly these names
(``tests/test_schema.py`` checks it).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Tuple

__all__ = ["Workload", "WORKLOADS", "END_TO_END", "PER_LAYER", "COUNT_UNIT"]


@dataclass(frozen=True)
class Workload:
    """One cell: sizes never depend on the seed."""

    name: str
    why: str
    #: "GLAP", "GRMP", or "idle" (the benchmark's own no-op policy).
    policy: str
    n_pms: int
    ratio: int
    warmup: int
    rounds: int
    #: PMs of the ``--smoke`` variant (same rounds, same code paths).
    smoke_pms: int
    # GLAP only: tail of the warmup spent in Algorithm 2, and its knobs.
    aggregation_rounds: int = 0
    q_partitions: int = 1
    gossip_tokens: float = 0.0
    #: GLAP only: > 0 seeds every PM with a model exported from a training
    #: cell of this many PMs, built during set-up.
    pretrain_pms: int = 0
    #: Run as an operator would: telemetry, heartbeat, JSONL tracer,
    #: periodic checkpoints and the invariant observer, files on disk.
    observed: bool = False

    @property
    def total_rounds(self) -> int:
        return self.warmup + self.rounds

    def at_scale(self, smoke: bool) -> "Workload":
        if not smoke:
            return self
        return replace(
            self, n_pms=self.smoke_pms, pretrain_pms=min(self.pretrain_pms, 20)
        )


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="glap_paper_300",
            why="GLAP end to end in the paper's cell shape: Alg. 1 learning, full-map "
            "Alg. 2 aggregation, then Alg. 3; core.aggregation and core.learning do the work",
            policy="GLAP", n_pms=300, ratio=3, warmup=14, rounds=20,
            aggregation_rounds=6, smoke_pms=40,
        ),
        Workload(
            name="glap_bw_k4_120",
            why="same aggregation layer used differently: rotating 4-way partitioned "
            "exchange with token deferral, so a full-map gain that costs this path shows",
            policy="GLAP", n_pms=120, ratio=3, warmup=24, rounds=6,
            aggregation_rounds=18, q_partitions=4, gossip_tokens=6000.0, smoke_pms=40,
        ),
        Workload(
            name="glap_consolidate_500",
            why="pretrained GLAP, long Alg. 3 phase: consolidation, Cyclon and the engine "
            "loop do the work; learning/aggregation are bypassed, so they must not move it",
            policy="GLAP", n_pms=500, ratio=4, warmup=2, rounds=60,
            aggregation_rounds=1, pretrain_pms=40, smoke_pms=50,
        ),
        Workload(
            name="grmp_observed_2k",
            why="baseline GRMP run as an operator would (telemetry, heartbeat, JSONL "
            "trace, checkpoints, invariants): the only workload with obs sinks and "
            "checkpoint I/O on; bypasses core.*",
            policy="GRMP", n_pms=2000, ratio=3, warmup=3, rounds=12,
            observed=True, smoke_pms=50,
        ),
        Workload(
            name="scale_trace_20k",
            why="no-op policy at 20k PMs x 4: trace synthesis, DataCenter build, "
            "advance_round, metrics sampling, the empty engine loop and result "
            "assembly with no gossip; the only one with large set-up and RSS",
            policy="idle", n_pms=20000, ratio=4, warmup=4, rounds=16,
            smoke_pms=2000,
        ),
    )
}

#: Unit of metrics that must repeat exactly for a fixed seed.
COUNT_UNIT = "count"

#: name -> (unit, better, bound).  Measured on untraced runs only.
END_TO_END: Dict[str, Tuple[str, str, float]] = {
    "setup_s": ("s", "lower", 0.25),
    "run_s": ("s", "lower", 0.25),
    "wall_s": ("s", "lower", 0.25),
    "pm_rounds_per_s": ("1/s", "higher", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.25),
}

#: name -> (unit, better).  Measured on the traced run only.
PER_LAYER: Dict[str, Tuple[str, str]] = {
    "traces.build_s": ("s", "lower"),
    "traces.cells": ("count", "lower"),
    "traces.ns_per_cell": ("ns", "lower"),
    "traces.resident_mb": ("MB", "lower"),
    "traces.peak_mb": ("MB", "lower"),
    "datacenter.build_s": ("s", "lower"),
    "datacenter.advance_s": ("s", "lower"),
    "datacenter.advance_calls": ("count", "lower"),
    "datacenter.advance_us_per_vm": ("us", "lower"),
    "datacenter.migrations": ("count", "lower"),
    "simulator.run_round_s": ("s", "lower"),
    "simulator.self_s": ("s", "lower"),
    "simulator.rounds": ("count", "lower"),
    "simulator.observers_s": ("s", "lower"),
    "simulator.messages_sent": ("count", "lower"),
    "simulator.messages_dropped": ("count", "lower"),
    "overlay.execute_s": ("s", "lower"),
    "overlay.calls": ("count", "lower"),
    "overlay.us_per_call": ("us", "lower"),
    "core.glap.attach_s": ("s", "lower"),
    "core.glap.pretrain_s": ("s", "lower"),
    "core.learning.s": ("s", "lower"),
    "core.learning.calls": ("count", "lower"),
    "core.learning.us_per_call": ("us", "lower"),
    "core.learning.train_rounds": ("count", "lower"),
    "core.aggregation.s": ("s", "lower"),
    "core.aggregation.calls": ("count", "lower"),
    "core.aggregation.us_per_call": ("us", "lower"),
    "core.aggregation.bytes": ("count", "lower"),
    "core.aggregation.deferred": ("count", "lower"),
    "core.aggregation.q_cosine_final": ("ratio", "higher"),
    "core.consolidation.s": ("s", "lower"),
    "core.consolidation.calls": ("count", "lower"),
    "core.consolidation.us_per_call": ("us", "lower"),
    "core.consolidation.migrations_per_call": ("ratio", "higher"),
    "baselines.grmp.s": ("s", "lower"),
    "baselines.grmp.calls": ("count", "lower"),
    "baselines.grmp.us_per_call": ("us", "lower"),
    "baselines.bfd.baseline_s": ("s", "lower"),
    "metrics.sample_s": ("s", "lower"),
    "metrics.sample_calls": ("count", "lower"),
    "metrics.result_s": ("s", "lower"),
    "obs.telemetry_s": ("s", "lower"),
    "obs.heartbeat_s": ("s", "lower"),
    "obs.heartbeat_bytes": ("B", "lower"),
    "obs.tracer_emit_s": ("s", "lower"),
    "obs.tracer_events": ("count", "lower"),
    "obs.tracer_bytes": ("count", "lower"),
    "checkpoint.save_s": ("s", "lower"),
    "checkpoint.saves": ("count", "lower"),
    "checkpoint.bytes": ("count", "lower"),
    "checkpoint.restore_s": ("s", "lower"),
    "experiments.residual_frac": ("ratio", "lower"),
    "experiments.trace_overhead_frac": ("ratio", "lower"),
    "experiments.cpu_s": ("s", "lower"),
}
