"""Q-state census: what the Q-maps of a finished GLAP run hold in memory.

For each cell, one fresh process per run builds the trace, runs GLAP to
the end and then counts, over every ``q_out`` / ``q_in`` table of every
PM, each distinct object once:

* ``value_bytes`` / ``value_arrays``: the value arrays;
* ``key_bytes`` / ``key_arrays``: the key arrays, and ``key_sets``, the
  distinct key sets among them (by content); ``key_dtype`` and
  ``bytes_per_key``, what one key code costs;
* ``read_bytes`` / ``read_objects``: the read structure — the per-key-array
  position index (``read_kind: "index"``), or, on a tree that still has
  it, the per-table row cache (``"rows"``).  Dicts, their keys and their
  values are all counted (``sys.getsizeof``), every object once;
* ``peak_rss_mb``: the process's peak resident set, taken before the
  census walks anything.

Cells (seed 2016, one simulated day = 12 rounds, as in the e2e harness):

* ``paper_300``: ``glap_paper_300``'s shape (``benchmarks/e2e/workloads.py``);
* ``paper_2k``: 2 000 PMs at ratio 3, 10 learning + 30 aggregation rounds,
  then 10 consolidation rounds.

Usage::

    python benchmarks/bench_qstate_census.py                  # both cells, this tree
    python benchmarks/bench_qstate_census.py --src OTHER/src --label parent \\
        --runs 3 --out benchmarks/results/qstate_census.json  # append another tree's runs
    python benchmarks/bench_qstate_census.py --cell paper_2k \\
        --check benchmarks/results/qstate_census.json         # the CI gate

``--check`` fails (exit 1) when this tree's ``read_bytes`` exceed
``MAX_READ_FRAC`` of the receipt's ``parent`` median (the index must
stay under a quarter of what the per-table row cache took), or when
its ``key_arrays`` exceed its ``key_sets`` (one array per key set).
Under pytest, ``test_census_counts_every_table`` runs a tiny cell in
process.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE / "e2e"))

from workloads import WORKLOADS  # noqa: E402  (plain data, imports nothing)

SEED = 2016
ROUNDS_PER_DAY = 12
CELLS = {
    "paper_300": WORKLOADS["glap_paper_300"],
    "paper_2k": replace(
        WORKLOADS["glap_paper_300"], name="paper_2k",
        n_pms=2000, warmup=40, rounds=10, aggregation_rounds=30,
    ),
}
MAX_READ_FRAC = 0.25


def _deep_bytes(roots: Iterable[Any]) -> int:
    """``sys.getsizeof`` summed over dicts, their keys and values, each
    distinct object once."""
    seen = set()
    total = 0
    stack = list(roots)
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        total += sys.getsizeof(obj)
        if isinstance(obj, dict):
            stack.extend(obj.keys())
            stack.extend(obj.values())
    return total


def census(tables: List[Any]) -> Dict[str, Any]:
    """The counts above over ``tables`` (``QTable`` objects)."""
    def distinct(arrays):
        return list({id(a): a for a in arrays}.values())

    values = distinct(t._vals for t in tables)
    keys = distinct(t._keys for t in tables)
    key_bytes = sum(a.nbytes for a in keys)
    kind = "index" if hasattr(tables[0], "_index") else "rows"
    reads = distinct(r for r in (getattr(t, "_" + kind) for t in tables) if r is not None)
    return {
        "tables": len(tables),
        "value_bytes": sum(a.nbytes for a in values),
        "value_arrays": len(values),
        "key_bytes": key_bytes,
        "key_arrays": len(keys),
        "key_dtype": "/".join(sorted({a.dtype.name for a in keys})),
        "bytes_per_key": key_bytes / max(1, sum(a.size for a in keys)),
        "key_sets": len({a.tobytes() for a in keys}),
        "read_kind": kind,
        "read_bytes": _deep_bytes(reads),
        "read_objects": len(reads),
    }


def run_cell(name: str, n_pms: int = 0) -> Dict[str, Any]:
    """Run one cell in this process (``n_pms`` > 0 shrinks it) and take
    the census of its Q-maps."""
    from repro.core.glap import GlapConfig, GlapPolicy
    from repro.experiments.runner import build_trace, run_policy
    from repro.experiments.scenarios import Scenario
    from repro.traces.google import GoogleTraceParams

    w = CELLS[name]
    scenario = Scenario(
        n_pms=n_pms or w.n_pms, ratio=w.ratio, rounds=w.rounds,
        warmup_rounds=w.warmup, repetitions=1,
        trace_params=GoogleTraceParams(rounds_per_day=ROUNDS_PER_DAY),
    )
    policy = GlapPolicy(GlapConfig(aggregation_rounds=w.aggregation_rounds))
    t0 = time.monotonic()
    result = run_policy(scenario, policy, SEED, trace=build_trace(scenario, SEED))
    run_s = time.monotonic() - t0
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    tables = [t for m in policy.models.values() for t in (m.q_out, m.q_in)]
    return {
        "cell": name, "n_pms": scenario.n_pms, "run_s": round(run_s, 3),
        "peak_rss_mb": round(peak, 2), "migrations": int(result.total_migrations),
        **census(tables),
    }


def _child(name: str, src: Path) -> Dict[str, Any]:
    """One run in a fresh interpreter, against the package in ``src``."""
    code = (
        f"import sys, json; sys.path.insert(0, {str(src)!r}); sys.path.insert(0, {str(HERE)!r}); "
        f"import bench_qstate_census as c; print(json.dumps(c.run_cell({name!r})))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], check=True, capture_output=True, text=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def _parent_read_bytes(receipt: Path, cell: str) -> float:
    runs = json.loads(receipt.read_text())["cells"][cell]["parent"]
    return statistics.median(r["read_bytes"] for r in runs)


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--cell", choices=sorted(CELLS), nargs="+", default=sorted(CELLS))
    ap.add_argument("--src", type=Path, default=HERE.parent / "src",
                    help="the package tree to measure (default: this checkout's)")
    ap.add_argument("--label", default="change", help="receipt key of these runs")
    ap.add_argument("--runs", type=int, default=1, help="fresh processes per cell")
    ap.add_argument("--out", type=Path, help="append the runs to this receipt")
    ap.add_argument("--check", type=Path, help="gate against this receipt's parent runs")
    args = ap.parse_args(argv)

    failed = False
    runs: Dict[str, List[Dict[str, Any]]] = {}
    for cell in args.cell:
        runs[cell] = [_child(cell, args.src.resolve()) for _ in range(args.runs)]
        for run in runs[cell]:
            print(json.dumps(run, sort_keys=True))
        if args.check:
            limit = MAX_READ_FRAC * _parent_read_bytes(args.check, cell)
            worst = max(r["read_bytes"] for r in runs[cell])
            ok = worst <= limit
            failed |= not ok
            print(f"{cell}: read_bytes {worst} vs limit {limit:.0f} "
                  f"({MAX_READ_FRAC:.0%} of the parent's) -> {'OK' if ok else 'FAIL'}")
            split = max(r["key_arrays"] - r["key_sets"] for r in runs[cell])
            failed |= split > 0
            print(f"{cell}: key_arrays - key_sets {split} (one array per key set) "
                  f"-> {'OK' if split <= 0 else 'FAIL'}")
    if args.out:
        receipt = json.loads(args.out.read_text()) if args.out.exists() else {"cells": {}}
        for cell, cell_runs in runs.items():
            receipt["cells"].setdefault(cell, {}).setdefault(args.label, []).extend(cell_runs)
        args.out.write_text(json.dumps(receipt, indent=1, sort_keys=True) + "\n")
    return 1 if failed else 0


def test_census_counts_every_table():
    """A 20-PM ``paper_300`` run: every table is counted, converged maps
    share key arrays, and the read structure is this tree's index."""
    got = run_cell("paper_300", n_pms=20)
    assert got["tables"] == 40 and got["read_kind"] == "index"
    assert 1 <= got["key_sets"] == got["key_arrays"] < got["tables"]
    assert (got["key_dtype"], got["bytes_per_key"]) == ("uint16", 2)
    assert got["value_bytes"] > 0 and got["read_bytes"] > 0


if __name__ == "__main__":
    sys.exit(main())
