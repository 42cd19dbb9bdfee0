"""Schema-versioned run summary artifacts (``BENCH_run.json``).

A run summary is the machine-readable record of one benchmarked
execution: what was run (context), how long each phase took (timings)
and what came out (metrics).  It is the unit of comparison for
``glap bench-compare`` and the CI perf gate — two summaries of the same
pinned (scenario, seed) cell must agree on every metric bit-for-bit and
on every timing within tolerance.

Layout (``SCHEMA`` / ``SCHEMA_VERSION`` gate readers)::

    {
      "schema": "glap-bench",
      "schema_version": 1,
      "kind": "run" | "sweep",
      "context":  {"policy": ..., "n_pms": ..., "seed": ..., ...},
      "timings":  {"wall_s": ..., "phases": {name: {"total_s":..., "calls":...}}},
      "metrics":  {name: number, ...},
      "telemetry": {...}            # optional, own TELEMETRY_VERSION
    }

Timings are machine-dependent; metrics are fully deterministic given
(scenario, seed) — the comparison tool treats the two accordingly.  The
optional ``telemetry`` section (:meth:`TelemetryRegistry.to_dict`)
carries counter totals and gauge samples, which are deterministic too
and gated like metrics.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, fields
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, Optional, Union

from repro.metrics.report import RunResult
from repro.util.io import atomic_write_text

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.profiler import PhaseProfiler
    from repro.obs.telemetry import TelemetryRegistry

__all__ = [
    "SCHEMA",
    "SCHEMA_VERSION",
    "METRIC_FIELDS",
    "run_summary",
    "sweep_summary",
    "write_summary",
    "load_summary",
]

SCHEMA = "glap-bench"
SCHEMA_VERSION = 1

#: The RunResult scalars a run summary records (all deterministic): its
#: end-of-run metrics, the fields with a scalar default, in declaration
#: order.
METRIC_FIELDS = tuple(f.name for f in fields(RunResult) if f.default is not MISSING)


def _envelope(kind: str) -> Dict[str, Any]:
    return {"schema": SCHEMA, "schema_version": SCHEMA_VERSION, "kind": kind}


def run_summary(
    result: RunResult,
    *,
    wall_s: float,
    profiler: Optional["PhaseProfiler"] = None,
    warmup_rounds: Optional[int] = None,
    trace_events: Optional[int] = None,
    telemetry: Optional["TelemetryRegistry"] = None,
) -> Dict[str, Any]:
    """Build a ``kind="run"`` summary from one finished run."""
    summary = _envelope("run")
    context: Dict[str, Any] = {
        "policy": result.policy,
        "n_pms": result.n_pms,
        "n_vms": result.n_vms,
        "rounds": result.rounds,
        "seed": result.seed,
    }
    if warmup_rounds is not None:
        context["warmup_rounds"] = int(warmup_rounds)
    summary["context"] = context
    timings: Dict[str, Any] = {"wall_s": float(wall_s)}
    if profiler is not None:
        timings["phases"] = profiler.breakdown()
    summary["timings"] = timings
    summary["metrics"] = {name: getattr(result, name) for name in METRIC_FIELDS}
    if trace_events is not None:
        summary["trace_events"] = int(trace_events)
    if telemetry is not None and telemetry.enabled:
        summary["telemetry"] = telemetry.to_dict()
    return summary


def sweep_summary(
    context: Dict[str, Any],
    cell_timings: Dict[str, Dict[str, float]],
    cell_metrics: Dict[str, float],
    *,
    wall_s: float,
) -> Dict[str, Any]:
    """Build a ``kind="sweep"`` summary.

    ``cell_timings`` maps ``"<scenario>/<policy>"`` to
    ``{"total_s": ..., "calls": ...}`` (wall time summed over that
    cell's repetitions); ``cell_metrics`` maps flat metric keys to
    deterministic numbers.
    """
    summary = _envelope("sweep")
    summary["context"] = dict(context)
    summary["timings"] = {"wall_s": float(wall_s), "phases": dict(cell_timings)}
    summary["metrics"] = dict(cell_metrics)
    return summary


def write_summary(summary: Dict[str, Any], path: Union[str, Path]) -> None:
    """Write a summary atomically (tmp file + rename)."""
    _validate(summary, where=str(path))
    atomic_write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n", path)


def load_summary(path: Union[str, Path]) -> Dict[str, Any]:
    """Load and validate a summary written by :func:`write_summary`."""
    try:
        summary = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not valid JSON ({exc})") from None
    _validate(summary, where=str(path))
    return summary


def _validate(summary: Any, *, where: str) -> None:
    if not isinstance(summary, dict):
        raise ValueError(f"{where}: summary must be a JSON object")
    if summary.get("schema") != SCHEMA:
        raise ValueError(
            f"{where}: schema {summary.get('schema')!r} is not {SCHEMA!r}"
        )
    version = summary.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ValueError(
            f"{where}: schema_version {version!r} unsupported "
            f"(this build reads version {SCHEMA_VERSION})"
        )
    for section in ("context", "timings", "metrics"):
        if not isinstance(summary.get(section), dict):
            raise ValueError(f"{where}: missing or malformed {section!r} section")
    if "wall_s" not in summary["timings"]:
        raise ValueError(f"{where}: timings section lacks wall_s")
    if summary.get("telemetry") is not None:
        from repro.obs.telemetry import check_section

        check_section(summary["telemetry"], where=where)
