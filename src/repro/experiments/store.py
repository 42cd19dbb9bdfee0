"""Persisting run results.

A paper-scale sweep takes hours; its results must outlive the process.
:func:`save_results` / :func:`load_results` round-trip a list of
:class:`~repro.metrics.report.RunResult` (scalars + every per-round
series) through a single JSON file, so analysis — figure drivers,
aggregation, the paper-shape checker — can run later without re-running
a single simulation.

Format: one JSON object ``{"format": 1, "runs": [...]}`` with series
stored as plain lists.  JSON keeps the archive greppable and
diff-friendly; for the data volumes involved (a few thousand floats per
run) compactness is irrelevant.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, fields
from pathlib import Path
from typing import List, Union

import numpy as np

from repro.experiments.parallel import SweepResults
from repro.metrics.report import RunResult
from repro.util.io import atomic_write_json

__all__ = ["save_results", "load_results", "save_sweep", "load_sweep"]

_FORMAT = 1

#: RunResult's scalar fields, in declaration order: all but the
#: ``series`` / ``extras`` containers.  Those without a default are the
#: run's identity, the constructor's arguments.
_SCALARS = [f for f in fields(RunResult) if f.default_factory is MISSING]
_SCALAR_FIELDS = tuple(f.name for f in _SCALARS)
_IDENTITY_FIELDS = tuple(f.name for f in _SCALARS if f.default is MISSING)


def _run_to_dict(run: RunResult) -> dict:
    out = {name: getattr(run, name) for name in _SCALAR_FIELDS}
    out["series"] = {k: np.asarray(v).tolist() for k, v in run.series.items()}
    out["extras"] = dict(run.extras)
    return out


def _run_from_dict(data: dict) -> RunResult:
    unknown = set(data) - set(_SCALAR_FIELDS) - {"series", "extras"}
    if unknown:
        raise ValueError(f"unknown RunResult fields in archive: {sorted(unknown)}")
    run = RunResult(**{name: data[name] for name in _IDENTITY_FIELDS})
    for name in _SCALAR_FIELDS:
        if name in data:
            setattr(run, name, data[name])
    run.series = {
        k: np.asarray(v, dtype=np.float64) for k, v in data.get("series", {}).items()
    }
    run.extras = dict(data.get("extras", {}))
    return run


def save_results(runs: List[RunResult], path: Union[str, Path]) -> None:
    """Archive runs to a JSON file."""
    payload = {"format": _FORMAT, "runs": [_run_to_dict(r) for r in runs]}
    atomic_write_json(payload, path)


def load_results(path: Union[str, Path]) -> List[RunResult]:
    """Load runs archived by :func:`save_results`."""
    path = Path(path)
    payload = json.loads(path.read_text())
    if not isinstance(payload, dict) or payload.get("format") != _FORMAT:
        raise ValueError(f"{path}: not a results archive (format {_FORMAT})")
    return [_run_from_dict(d) for d in payload["runs"]]


def save_sweep(sweep: SweepResults, path: Union[str, Path]) -> None:
    """Archive a whole sweep (scenario labels are kept with each run)."""
    from repro.config import scenario_to_dict

    payload = {
        "format": _FORMAT,
        "scenarios": [scenario_to_dict(s) for s in sweep.scenarios],
        "policies": list(sweep.policies),
        "runs": {
            f"{label}::{policy}": [_run_to_dict(r) for r in runs]
            for (label, policy), runs in sweep.runs.items()
        },
    }
    atomic_write_json(payload, path)


def load_sweep(path: Union[str, Path]) -> SweepResults:
    """Load a sweep archived by :func:`save_sweep`."""
    from repro.config import scenario_from_dict

    path = Path(path)
    payload = json.loads(path.read_text())
    if not isinstance(payload, dict) or payload.get("format") != _FORMAT:
        raise ValueError(f"{path}: not a sweep archive (format {_FORMAT})")
    sweep = SweepResults(
        scenarios=[scenario_from_dict(d) for d in payload["scenarios"]],
        policies=tuple(payload["policies"]),
    )
    for key, runs in payload["runs"].items():
        label, _, policy = key.partition("::")
        if not policy:
            raise ValueError(f"{path}: malformed run key {key!r}")
        sweep.runs[(label, policy)] = [_run_from_dict(d) for d in runs]
    return sweep
