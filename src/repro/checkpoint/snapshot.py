"""Snapshot and restore of complete run state.

Save side: :func:`save_checkpoint` serialises a :class:`RunEnv` — the
bundle of live objects the experiment runner drives — into one
schema-versioned JSON file, written atomically so a crash mid-write can
never leave a truncated checkpoint.

Restore side: :func:`restore_checkpoint` calls the runner's one set-up
(:func:`repro.experiments.runner.wire_run`; DESIGN.md "Run path"), then
overwrites every piece of mutable state from the file, and restores the
RNG bit-generator states **last** — any randomness consumed while
rebuilding (overlay bootstraps, initial placement) becomes irrelevant.
The result continues bit-identically to a run that never stopped.

Serialisation notes:

* Every section whose size grows with the cell (PM/VM columns,
  placement, node states, the migration log, and inside the policy
  state the Cyclon views, Q-maps, histories and gossip cursors) is a
  packed array leaf (:func:`repro.util.io.pack_array`): the column's
  little-endian bytes, base64-encoded.  Exactness comes from the bytes
  — NaN payloads and ``-0.0`` included — not from a decimal detour.
* The small nested sections (scenario, RNG states, telemetry, progress)
  stay plain JSON: Python floats round-trip exactly through ``json``
  (shortest-repr), and ``json.loads(path)["progress"]`` keeps working.
* Placement is the store's CSR (``count`` per PM + flat ``vm_ids``)
  *in insertion order*: a PM's member order is the float-summation
  order of its demand vectors, so reordering would perturb
  bit-exactness.
* The scenario, fault plan, invariant switch and shard layout
  included, is stored once, through :mod:`repro.config`'s converters:
  a run is configured by its scenario alone, and a restored run is the
  checkpointed one.  The federation ledger's counters are state, under
  ``state["ledger"]`` (``null`` for an unsharded run).
* Older files configured the run in top-level sections too: the
  effective fault plan in ``faults`` / ``check_invariants`` keys, and
  the shard layout and ledger counters in a ``sharding`` section.  A
  restore folds those into the scenario and the state, so they resume
  exactly as written.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from itertools import starmap
from operator import attrgetter
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, Optional, Union

import numpy as np

from repro.config import faultplan_from_dict, scenario_from_dict, scenario_to_dict
from repro.datacenter.migration import MigrationRecord
from repro.experiments.scenarios import Scenario, ShardConfig
from repro.metrics.collector import MetricsCollector
from repro.simulator.node import NodeState
from repro.util.io import atomic_write_text, pack_array, unpack_array

if TYPE_CHECKING:  # pragma: no cover
    from repro.baselines.base import ConsolidationPolicy
    from repro.datacenter.cluster import DataCenter
    from repro.experiments.sharding import CrossShardLedger
    from repro.faults.controller import FaultController
    from repro.obs.heartbeat import HeartbeatWriter
    from repro.obs.observers import OverloadTraceObserver
    from repro.obs.recorder import FlightRecorder
    from repro.simulator.engine import Simulation
    from repro.simulator.observer import InvariantObserver
    from repro.traces.base import TraceSource
    from repro.util.rng import RngStreams

__all__ = [
    "CHECKPOINT_SCHEMA",
    "CHECKPOINT_SCHEMA_VERSION",
    "SUPPORTED_SCHEMA_VERSIONS",
    "RunEnv",
    "save_checkpoint",
    "load_checkpoint",
    "restore_checkpoint",
]

CHECKPOINT_SCHEMA = "glap-checkpoint"
#: Version 3 stores every O(n) section as a packed array leaf (see the
#: module docstring).  It is the only version written or read: v1 (one
#: dict per machine) and v2 (the same columns as JSON number lists)
#: files are refused by :func:`load_checkpoint`, not converted.
CHECKPOINT_SCHEMA_VERSION = 3
SUPPORTED_SCHEMA_VERSIONS = (CHECKPOINT_SCHEMA_VERSION,)

_NODE_STATES = tuple(NodeState)
#: section -> checkpointed column -> the store attribute it dumps.
_STORE_COLUMNS = {
    "pms": {
        "asleep": "pm_asleep",
        "active_seconds": "pm_active_seconds",
        "saturated_seconds": "pm_saturated_seconds",
    },
    "vms": {
        "cpu_requested_mips_s": "vm_cpu_requested",
        "cpu_degraded_mips_s": "vm_cpu_degraded",
        "migrations": "vm_migrations",
        "monitor_current": "cur",
        "monitor_average": "avg",
        "monitor_count": "monitor_count",
    },
}
#: MigrationRecord fields in constructor order, with their column dtype
#: (ids and rounds are ``i4``: a cell is far below 2**31 machines).
_MIGRATION_COLUMNS = {
    "round_index": np.dtype("<i4"),
    "vm_id": np.dtype("<i4"),
    "src_pm": np.dtype("<i4"),
    "dst_pm": np.dtype("<i4"),
    "duration_s": np.dtype("<f8"),
    "energy_j": np.dtype("<f8"),
    "degraded_mips_s": np.dtype("<f8"),
}
_migration_fields = attrgetter(*_MIGRATION_COLUMNS)


@dataclass
class RunEnv:
    """Everything one in-flight run consists of.

    This is the run context: :func:`repro.experiments.runner.wire_run`
    assembles it, for a fresh run and for :func:`restore_checkpoint`
    alike, and the runner's round body drives it.  Of the five sinks,
    tracer, profiler and telemetry live on ``sim`` / ``dc``; the
    heartbeat and the flight recorder are fields here.
    """

    scenario: Scenario
    policy: "ConsolidationPolicy"
    seed: int
    dc: "DataCenter"
    sim: "Simulation"
    streams: "RngStreams"
    collector: Optional[MetricsCollector] = None
    controller: Optional["FaultController"] = None
    invariant_observer: Optional["InvariantObserver"] = None
    #: Federation ledger of a sharded run (``None`` otherwise).
    ledger: Optional["CrossShardLedger"] = None
    #: Installed with an enabled tracer; a restore re-arms it.
    overload_observer: Optional["OverloadTraceObserver"] = None
    #: Live-run heartbeat stream (``None`` when off).
    heartbeat: Optional["HeartbeatWriter"] = None
    #: Flight recorder that dumps a post-mortem bundle (``None`` when off).
    recorder: Optional["FlightRecorder"] = None
    #: Evaluation rounds completed so far (0 for a run still in warmup).
    eval_rounds_done: int = 0


# -- capture -----------------------------------------------------------------


def _capture_state(env: RunEnv) -> Dict[str, Any]:
    dc, sim, store = env.dc, env.sim, env.dc.store
    indptr, vm_ids = store.csr()
    # One tuple per MigrationRecord field (empty ones for an empty log).
    log = list(zip(*map(_migration_fields, dc.migrations))) or [()] * len(_MIGRATION_COLUMNS)
    state: Dict[str, Any] = {
        "nodes": pack_array([_NODE_STATES.index(n.state) for n in sim.nodes], "u1"),
        **{
            section: {key: pack_array(getattr(store, attr)) for key, attr in columns.items()}
            for section, columns in _STORE_COLUMNS.items()
        },
        # The store's CSR: each PM's VM ids in its insertion order (see
        # module docstring: the order is float-summation order).
        "placement": {
            "count": pack_array(np.diff(indptr), "<i4"),
            "vm_ids": pack_array(vm_ids, "<i4"),
        },
        "migrations": {
            name: pack_array(column, dtype)
            for (name, dtype), column in zip(_MIGRATION_COLUMNS.items(), log)
        },
        "network": sim.network.state_dict(),
        "policy": env.policy.state_dict(),
        "telemetry": (
            sim.telemetry.state_dict() if sim.telemetry.enabled else None  # type: ignore[attr-defined]
        ),
    }
    state["faults"] = (
        env.controller.state_dict() if env.controller is not None else None
    )
    state["ledger"] = env.ledger.state_dict() if env.ledger is not None else None
    if env.collector is not None:
        col = env.collector
        state["collector"] = {
            "series": {name: list(s.values) for name, s in col.series.items()},
            "migrations_at_start": col._migrations_at_start,
            "energy_at_start": col._energy_at_start,
            "last_migrations": col._last_migrations,
            "last_energy": col._last_energy,
        }
    else:
        state["collector"] = None
    if env.invariant_observer is not None:
        obs = env.invariant_observer
        state["invariants"] = {
            "rounds_checked": obs.rounds_checked,
            "last_round_checked": obs.last_round_checked,
        }
    else:
        state["invariants"] = None
    return state


def save_checkpoint(env: RunEnv, path: Union[str, Path]) -> Dict[str, Any]:
    """Snapshot ``env`` to ``path`` (atomic write); returns the payload.

    Must be called at an evaluation-round boundary — after the round's
    metrics sample, before the next ``advance_round`` — which is the
    only point at which the state sections above are mutually
    consistent.
    """
    payload: Dict[str, Any] = {
        "schema": CHECKPOINT_SCHEMA,
        "schema_version": CHECKPOINT_SCHEMA_VERSION,
        "scenario": scenario_to_dict(env.scenario),
        "policy": env.policy.name,
        "seed": env.seed,
        "progress": {
            "eval_rounds_done": env.eval_rounds_done,
            "sim_round_index": env.sim.round_index,
            "dc_current_round": env.dc.current_round,
        },
        "rng": env.streams.state_dict(),
        "state": _capture_state(env),
    }
    atomic_write_text(json.dumps(payload), path)
    return payload


# -- load / validate ---------------------------------------------------------


def load_checkpoint(path: Union[str, Path]) -> Dict[str, Any]:
    """Read and validate a checkpoint file's envelope."""
    try:
        payload = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not valid JSON ({exc})") from None
    _validate(payload, where=str(path))
    return payload


def _validate(payload: Any, *, where: str) -> None:
    if not isinstance(payload, dict):
        raise ValueError(f"{where}: checkpoint must be a JSON object")
    if payload.get("schema") != CHECKPOINT_SCHEMA:
        raise ValueError(
            f"{where}: schema {payload.get('schema')!r} is not "
            f"{CHECKPOINT_SCHEMA!r}"
        )
    version = payload.get("schema_version")
    if version not in SUPPORTED_SCHEMA_VERSIONS:
        raise ValueError(
            f"{where}: schema_version {version!r} unsupported "
            f"(this build reads versions {SUPPORTED_SCHEMA_VERSIONS})"
        )
    for section in ("scenario", "progress", "rng", "state"):
        if not isinstance(payload.get(section), dict):
            raise ValueError(f"{where}: missing or malformed {section!r} section")
    for key in ("policy", "seed"):
        if key not in payload:
            raise ValueError(f"{where}: missing {key!r}")
    state = payload["state"]
    for section in ("nodes", "pms", "vms", "placement", "migrations", "network", "policy"):
        if section not in state:
            raise ValueError(f"{where}: state lacks {section!r}")
    progress = payload["progress"]
    for key in ("eval_rounds_done", "sim_round_index", "dc_current_round"):
        if key not in progress:
            raise ValueError(f"{where}: progress lacks {key!r}")
    _check_leaves(state, f"{where}: state")
    # An older file's layout and ledger counters (folded on restore).
    sharding = payload.get("sharding")
    if sharding is not None:
        if not isinstance(sharding, dict) or not isinstance(sharding.get("ledger"), dict):
            raise ValueError(f"{where}: malformed 'sharding' section")
        # The ledger used to replay the deleted shard workers' deliveries;
        # a section that carries that replay is refused, not converted.
        retired = sorted({"pending", "digest"} & sharding["ledger"].keys())
        if retired:
            raise ValueError(
                f"{where}: sharding ledger carries {retired}, the retired "
                f"delivery replay; this build does not read it"
            )
        for key in ("n_shards", "wan_factor"):
            if key not in sharding:
                raise ValueError(f"{where}: sharding section lacks {key!r}")


def _check_leaves(node: Any, where: str) -> None:
    """Decode (and drop) every packed leaf under ``node``: a corrupt
    leaf anywhere refuses the file before a run is rebuilt from it."""
    if isinstance(node, dict):
        if "b64" in node:
            unpack_array(node, where)
        else:
            for key, child in node.items():
                _check_leaves(child, f"{where}/{key}")


# -- restore -----------------------------------------------------------------


def _restore_state(env: RunEnv, state: Dict[str, Any]) -> None:
    dc, sim, store = env.dc, env.sim, env.dc.store
    # Placement first, in the recorded insertion order (it is the
    # float-summation order of each PM's demand vector).
    placement = state["placement"]
    store.load_placement(
        unpack_array(placement.get("count"), "state/placement/count", "i"),
        unpack_array(placement.get("vm_ids"), "state/placement/vm_ids", "i"),
    )

    node_codes = unpack_array(state["nodes"], "state/nodes", "u")
    if node_codes.shape != (len(sim.nodes),) or np.any(node_codes >= len(_NODE_STATES)):
        raise ValueError(f"state/nodes: expected one state code for each of {len(sim.nodes)} nodes")
    for node, code in zip(sim.nodes, node_codes.tolist()):
        node.state = _NODE_STATES[code]

    # Each column is held to the kind and shape (so the PM/VM count) of
    # the store column it overwrites.
    for section, columns in _STORE_COLUMNS.items():
        for key, attr in columns.items():
            dest, where = getattr(store, attr), f"state/{section}/{key}"
            column = unpack_array(state[section].get(key), where, dest.dtype.kind)
            if column.shape != dest.shape:
                raise ValueError(
                    f"{where}: checkpoint column has shape {list(column.shape)}, "
                    f"data centre has {list(dest.shape)}"
                )
            dest[:] = column
    store.invalidate_planes()

    log = (
        unpack_array(state["migrations"].get(name), f"state/migrations/{name}", dtype.kind).tolist()
        for name, dtype in _MIGRATION_COLUMNS.items()
    )
    dc.migrations[:] = starmap(MigrationRecord, zip(*log, strict=True))
    sim.network.load_state_dict(state["network"])
    env.policy.load_state_dict(state["policy"])
    if env.controller is not None:
        if state["faults"] is None:
            raise ValueError("checkpoint lacks fault-controller state")
        env.controller.load_state_dict(state["faults"])
    if env.ledger is not None:
        if state.get("ledger") is None:
            raise ValueError("checkpoint lacks federation-ledger state")
        env.ledger.load_state_dict(state["ledger"])

    col_state = state["collector"]
    if col_state is not None:
        collector = MetricsCollector(dc)
        for name, values in col_state["series"].items():
            collector.series[name].values = [float(v) for v in values]
        collector._migrations_at_start = int(col_state["migrations_at_start"])
        collector._energy_at_start = float(col_state["energy_at_start"])
        collector._last_migrations = int(col_state["last_migrations"])
        collector._last_energy = float(col_state["last_energy"])
        env.collector = collector

    inv_state = state["invariants"]
    if env.invariant_observer is not None and inv_state is not None:
        env.invariant_observer.rounds_checked = int(inv_state["rounds_checked"])
        env.invariant_observer.last_round_checked = (
            None
            if inv_state["last_round_checked"] is None
            else int(inv_state["last_round_checked"])
        )


def _checkpointed_scenario(payload: Dict[str, Any]) -> Scenario:
    """The checkpointed run's scenario, with an older file's top-level
    configuration folded in: its ``faults`` / ``check_invariants`` keys
    are the effective plan, and its ``sharding`` section is the layout
    (whose ``ledger`` counters move into ``payload["state"]``)."""
    scenario = scenario_from_dict(payload["scenario"])
    if "faults" in payload or "check_invariants" in payload:
        faults = payload.get("faults")
        scenario = replace(
            scenario,
            faults=faultplan_from_dict(faults) if faults is not None else None,
            check_invariants=bool(payload.get("check_invariants")),
        )
    section = payload.get("sharding")
    if section is not None:
        scenario = replace(
            scenario,
            sharding=ShardConfig(
                n_shards=int(section["n_shards"]),
                wan_factor=float(section["wan_factor"]),
            ),
        )
        payload["state"]["ledger"] = section["ledger"]
    return scenario


def restore_checkpoint(
    path: Union[str, Path],
    policy: "ConsolidationPolicy",
    *,
    trace: Optional["TraceSource"] = None,
    **sinks: Any,
) -> RunEnv:
    """Rebuild a resumable :class:`RunEnv` from a checkpoint file.

    ``policy`` must be a *fresh* instance constructed exactly as for the
    original run (same name, same configuration) — policy configuration
    is the caller's provenance, the checkpoint stores only the mutable
    learned/progress state plus the policy name for validation.

    ``trace`` short-circuits workload regeneration (same contract as
    ``run_policy``).  ``sinks`` are the observability keywords of
    :func:`~repro.experiments.runner.wire_run` (tracer, profiler,
    telemetry, heartbeat, recorder), forwarded as they are — none
    consumes randomness, so resuming with or without them is
    bit-identical.  A telemetry registry passed here is reloaded from
    the checkpoint's recorded series (when present), so the resumed run
    continues every counter and gauge exactly where the interrupted one
    stopped.

    The run's configuration, its shard layout included, is the
    checkpoint's scenario (see :func:`_checkpointed_scenario`).
    """
    # Late import: the runner imports this package for saving.
    from repro.experiments.runner import wire_run

    payload = load_checkpoint(path)
    if policy.name != payload["policy"]:
        raise ValueError(
            f"{path}: checkpoint is for policy {payload['policy']!r}, "
            f"got a {policy.name!r} instance"
        )
    scenario = _checkpointed_scenario(payload)
    # The fresh run's own set-up, minus the warmup loop: deterministic
    # given (scenario, seed), and whatever randomness it consumes is
    # overwritten when the RNG states load at the end.
    env = wire_run(scenario, policy, int(payload["seed"]), trace=trace, **sinks)
    progress = payload["progress"]
    env.eval_rounds_done = int(progress["eval_rounds_done"])
    _restore_state(env, payload["state"])
    if env.overload_observer is not None:
        env.overload_observer.rearm()
    telemetry_state = payload["state"].get("telemetry")
    if env.sim.telemetry.enabled and telemetry_state is not None:
        env.sim.telemetry.load_state_dict(telemetry_state)  # type: ignore[attr-defined]

    env.dc.current_round = int(progress["dc_current_round"])
    env.sim.resume_at(int(progress["sim_round_index"]))
    # RNG states last: this invalidates every draw consumed during the
    # rebuild above and pins all future draws to the checkpointed point.
    env.streams.load_state_dict(payload["rng"])
    return env
