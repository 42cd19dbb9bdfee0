"""Bandwidth-aware gossip — Q-cosine convergence vs cumulative bytes.

A Figure 5-style curve with bytes on the x-axis instead of rounds: for
each partitioning level (and one token-throttled cell) run GLAP with
telemetry and an ``every=1`` heartbeat, and record the
``glap/q_cosine`` gauge against the cumulative ``gossip/bytes`` counter
of each round's tick.

Two effects are expected, and asserted at the default scale:

* **Granularity** — pure pairwise averaging extracts the same
  convergence per byte at any partition count, but full-map exchange
  spends in round-sized steps of ~N * map-size bytes, so it overshoots
  the 0.99 crossing by up to a whole step; partitioned exchange spends
  in steps k times finer and lands near the true crossing.
* **Phase total** — over the paper's fixed-length aggregation phase the
  partitioned variants keep gossiping after convergence at 1/k of the
  byte rate, ending the phase >= 0.99 at a small fraction of the
  full-map bytes.

The curves and summary numbers are committed to
``benchmarks/results/BENCH_gossip_bw.json`` (keyed by scale, like
``BENCH_sweep.json``).
"""

import json
import tempfile
from pathlib import Path

from repro.core.glap import GlapConfig, GlapPolicy
from repro.experiments.runner import run_policy
from repro.experiments.scenarios import Scenario
from repro.obs.heartbeat import HeartbeatWriter, load_heartbeat
from repro.obs.telemetry import TelemetryRegistry
from repro.traces.google import GoogleTraceParams

from common import RESULTS_DIR, SCALE, SHAPE_CHECKS, once

_OUT = RESULTS_DIR / "BENCH_gossip_bw.json"
_THRESHOLD = 0.99

if SCALE == "paper":
    _SCENARIO = Scenario(n_pms=500, ratio=3, rounds=20, warmup_rounds=760)
    _AGG_ROUNDS = 60
elif SCALE == "quick":
    _SCENARIO = Scenario(
        n_pms=16, ratio=2, rounds=5, warmup_rounds=60,
        trace_params=GoogleTraceParams(rounds_per_day=60),
    )
    _AGG_ROUNDS = 30
else:
    # The nightly CI cell: 40 PMs at ratio 3, one compressed demand day
    # of warmup with a 60-round aggregation tail.
    _SCENARIO = Scenario(
        n_pms=40, ratio=3, rounds=5, warmup_rounds=120,
        trace_params=GoogleTraceParams(rounds_per_day=120),
    )
    _AGG_ROUNDS = 60

#: (label, q_partitions, gossip_tokens).  The token budget for the
#: throttled cell is about half the k=4 steady-state per-node spend, so
#: deferrals demonstrably happen while convergence still completes
#: inside the phase.
_VARIANTS = [
    ("partitions=1", 1, 0.0),
    ("partitions=2", 2, 0.0),
    ("partitions=4", 4, 0.0),
    ("partitions=8", 8, 0.0),
    ("partitions=4,tokens=6000", 4, 6000.0),
]


def _run_variant(label, q_partitions, gossip_tokens):
    cfg = GlapConfig(
        aggregation_rounds=_AGG_ROUNDS,
        q_partitions=q_partitions,
        gossip_tokens=gossip_tokens,
    )
    telemetry = TelemetryRegistry(gauge_every=1)
    with tempfile.TemporaryDirectory() as tmp:
        heartbeat = HeartbeatWriter(Path(tmp) / "heartbeat.jsonl", every=1)
        run_policy(
            _SCENARIO,
            GlapPolicy(config=cfg),
            seed=_SCENARIO.seed_of(0),
            telemetry=telemetry,
            heartbeat=heartbeat,
        )
        # Each round's tick carries the registry's totals at that round.
        cum_bytes = {
            record["round"]: record["counters"].get("gossip/bytes", 0.0)
            for record in load_heartbeat(heartbeat.path)
            if record["kind"] == "tick"
        }
    totals = telemetry.totals()
    gauge = telemetry.gauges["glap/q_cosine"]
    bytes_to_threshold = None
    curve_rounds, curve_bytes, curve_cos = [], [], []
    started = False
    for r, cos in zip(gauge["rounds"], gauge["values"]):
        b = float(cum_bytes[r])
        if not started and b == 0.0:
            continue  # skip the flat learning-phase prefix
        started = True
        curve_rounds.append(int(r))
        curve_bytes.append(b)
        curve_cos.append(float(cos))
        if bytes_to_threshold is None and cos >= _THRESHOLD:
            bytes_to_threshold = b
    return {
        "label": label,
        "q_partitions": q_partitions,
        "gossip_tokens": gossip_tokens,
        "bytes_to_threshold": bytes_to_threshold,
        "final_cosine": float(gauge["values"][-1]),
        "total_bytes": float(totals.get("gossip/bytes", 0.0)),
        "deferred": float(totals.get("gossip/deferred", 0.0)),
        "curve": {
            "round": curve_rounds,
            "cumulative_bytes": curve_bytes,
            "q_cosine": curve_cos,
        },
    }


def _run_all():
    return [_run_variant(*v) for v in _VARIANTS]


def _write_results(variants):
    RESULTS_DIR.mkdir(exist_ok=True)
    merged = {}
    if _OUT.exists():
        try:
            merged = json.loads(_OUT.read_text())
        except (ValueError, OSError):
            merged = {}
    merged[SCALE] = {
        "schema_version": 1,
        "threshold": _THRESHOLD,
        "scenario": {
            "n_pms": _SCENARIO.n_pms,
            "ratio": _SCENARIO.ratio,
            "warmup_rounds": _SCENARIO.warmup_rounds,
            "rounds": _SCENARIO.rounds,
            "aggregation_rounds": _AGG_ROUNDS,
            "seed": _SCENARIO.seed_of(0),
        },
        "variants": variants,
    }
    _OUT.write_text(json.dumps(merged, indent=2) + "\n")


def test_gossip_bw(benchmark):
    variants = once(benchmark, _run_all)
    _write_results(variants)
    by_label = {v["label"]: v for v in variants}
    full = by_label["partitions=1"]
    part4 = by_label["partitions=4"]
    throttled = by_label["partitions=4,tokens=6000"]

    print()
    header = (
        f"{'variant':28s} {'bytes->'+format(_THRESHOLD, '.2f'):>14s} "
        f"{'final cos':>10s} {'phase bytes':>12s} {'deferred':>9s}"
    )
    print(header)
    print("-" * len(header))
    for v in variants:
        b99 = "-" if v["bytes_to_threshold"] is None else f"{v['bytes_to_threshold']:.0f}"
        print(
            f"{v['label']:28s} {b99:>14s} {v['final_cosine']:>10.4f} "
            f"{v['total_bytes']:>12.0f} {v['deferred']:>9.0f}"
        )

    if not SHAPE_CHECKS:
        return
    for v in variants:
        assert v["final_cosine"] >= _THRESHOLD, (
            f"{v['label']}: phase ended at {v['final_cosine']:.4f} < "
            f"{_THRESHOLD}"
        )
        assert v["bytes_to_threshold"] is not None, (
            f"{v['label']}: never crossed {_THRESHOLD}"
        )
    assert part4["bytes_to_threshold"] < full["bytes_to_threshold"], (
        "partitioned exchange should cross the threshold at fewer bytes "
        f"({part4['bytes_to_threshold']:.0f} vs "
        f"{full['bytes_to_threshold']:.0f})"
    )
    assert part4["total_bytes"] < 0.5 * full["total_bytes"], (
        "partitioned exchange should finish the phase well under half the "
        "full-map bytes"
    )
    assert throttled["deferred"] > 0, (
        "the token-throttled cell should actually defer some exchanges"
    )
    assert full["deferred"] == 0 and part4["deferred"] == 0
