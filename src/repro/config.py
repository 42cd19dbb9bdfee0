"""Experiment configuration serialisation.

Scenarios (with their trace parameters and fault plans) round-trip
through plain JSON, so a sweep's exact configuration is archived next to
its results (:func:`repro.experiments.store.save_sweep`) and restored
with them (:func:`repro.experiments.store.load_sweep`).
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict

from repro.experiments.scenarios import Scenario
from repro.faults.plan import CrashEvent, FaultPhase, FaultPlan, RestartEvent
from repro.traces.google import GoogleTraceParams

__all__ = [
    "scenario_to_dict",
    "scenario_from_dict",
    "faultplan_to_dict",
    "faultplan_from_dict",
]


def faultplan_to_dict(plan: FaultPlan) -> Dict[str, Any]:
    """Flatten a fault plan to JSON-safe types (lists, not tuples)."""
    out = dataclasses.asdict(plan)
    out["phases"] = [
        {
            "start_round": p.start_round,
            "end_round": p.end_round,
            "loss": p.loss,
            "loss_per_kind": [list(item) for item in p.loss_per_kind],
            "partition": [list(group) for group in p.partition],
        }
        for p in plan.phases
    ]
    out["crashes"] = [
        {"round_index": e.round_index, "node_ids": list(e.node_ids)}
        for e in plan.crashes
    ]
    out["restarts"] = [
        {"round_index": e.round_index, "node_ids": list(e.node_ids)}
        for e in plan.restarts
    ]
    return out


def _check_fields(data: Dict[str, Any], cls: type, label: str) -> None:
    known = {f.name for f in dataclasses.fields(cls)}
    unknown = set(data) - known
    if unknown:
        raise ValueError(f"unknown {label} fields: {sorted(unknown)}")


def faultplan_from_dict(data: Dict[str, Any]) -> FaultPlan:
    """Inverse of :func:`faultplan_to_dict`, with field validation."""
    data = dict(data)
    _check_fields(data, FaultPlan, "fault plan")
    phases = []
    for p in data.pop("phases", ()):
        p = dict(p)
        _check_fields(p, FaultPhase, "fault phase")
        if "loss_per_kind" in p:
            p["loss_per_kind"] = tuple(
                (str(k), float(v)) for k, v in p["loss_per_kind"]
            )
        if "partition" in p:
            p["partition"] = tuple(tuple(g) for g in p["partition"])
        phases.append(FaultPhase(**p))
    crashes = tuple(
        CrashEvent(e["round_index"], tuple(e["node_ids"]))
        for e in data.pop("crashes", ())
    )
    restarts = tuple(
        RestartEvent(e["round_index"], tuple(e["node_ids"]))
        for e in data.pop("restarts", ())
    )
    return FaultPlan(
        phases=tuple(phases), crashes=crashes, restarts=restarts, **data
    )


def scenario_to_dict(scenario: Scenario) -> Dict[str, Any]:
    """Flatten a scenario (and its trace params / fault plan) to JSON-safe types."""
    out = dataclasses.asdict(scenario)
    if scenario.trace_params is not None:
        params = dataclasses.asdict(scenario.trace_params)
        # Tuples -> lists for JSON; restored on load.
        params = {k: list(v) if isinstance(v, tuple) else v for k, v in params.items()}
        out["trace_params"] = params
    if scenario.faults is not None:
        out["faults"] = faultplan_to_dict(scenario.faults)
    return out


def scenario_from_dict(data: Dict[str, Any]) -> Scenario:
    """Inverse of :func:`scenario_to_dict`, with field validation."""
    data = dict(data)
    params = data.pop("trace_params", None)
    faults = data.pop("faults", None)
    known = {f.name for f in dataclasses.fields(Scenario)} - {"trace_params", "faults"}
    unknown = set(data) - known
    if unknown:
        raise ValueError(f"unknown scenario fields: {sorted(unknown)}")
    if params is not None:
        param_fields = {f.name for f in dataclasses.fields(GoogleTraceParams)}
        bad = set(params) - param_fields
        if bad:
            raise ValueError(f"unknown trace_params fields: {sorted(bad)}")
        params = {
            k: tuple(v) if isinstance(v, list) else v for k, v in params.items()
        }
        data["trace_params"] = GoogleTraceParams(**params)
    if faults is not None:
        data["faults"] = faultplan_from_dict(faults)
    return Scenario(**data)
