"""Checkpoint peak: what one save adds to a GLAP run's peak resident set.

Each row is two fresh processes of the same GLAP run — ratio 3, 14
warm-up rounds (the last 6 of them Algorithm 2's aggregation), 2
evaluation rounds, seed 2016 — one without checkpoints and one that
saves once, at the end.  The peak is ``ru_maxrss / 1024`` at the end of
the process (the ledger's MB), so the difference between the two is
what the save added.  The rows are ROADMAP item 14's cells: 300, 1 000
and 2 000 PMs; 99 % of each file is the Q-maps.

Usage::

    python benchmarks/bench_checkpoint_peak.py                    # every row, this tree
    python benchmarks/bench_checkpoint_peak.py --src OTHER/src --label parent
    python benchmarks/bench_checkpoint_peak.py --pms 1000 --check # the CI gate

``--check`` fails (exit 1) when a row's one-save peak exceeds its
no-save peak by more than ``MAX_SAVE_FRAC`` (a save must hold a slice
of the file, not the file), or when a row's file exceeds its size in
``FILE_BYTES`` by more than ``MAX_FILE_GROWTH`` (each shared Q-map array
is written once).  Each row prints as one line of JSON, then all rows
as a markdown table.  Under pytest,
``test_one_save_row_runs`` runs a tiny row in process.
"""

from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent

SEED = 2016
ROWS = (300, 1000, 2000)
RATIO, WARMUP, AGGREGATION, ROUNDS, ROUNDS_PER_DAY = 3, 14, 6, 2, 12
MAX_SAVE_FRAC = 0.15
#: Schema v4's file at 1 000 PMs, as measured, and how far it may grow.
FILE_BYTES = {1000: 29_369_187}
MAX_FILE_GROWTH = 0.10


def run_row(n_pms: int, save: bool) -> Dict[str, Any]:
    """One run in this process; with ``save``, one checkpoint at its end."""
    from repro.core.glap import GlapConfig, GlapPolicy
    from repro.experiments.runner import run_policy
    from repro.experiments.scenarios import Scenario
    from repro.traces.google import GoogleTraceParams

    scenario = Scenario(
        n_pms=n_pms, ratio=RATIO, rounds=ROUNDS, warmup_rounds=WARMUP, repetitions=1,
        trace_params=GoogleTraceParams(rounds_per_day=ROUNDS_PER_DAY),
    )
    policy = GlapPolicy(GlapConfig(aggregation_rounds=AGGREGATION))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "ck.json" if save else None
        t0 = time.monotonic()
        run_policy(scenario, policy, SEED, checkpoint_path=path)
        run_s = time.monotonic() - t0
        file_bytes = path.stat().st_size if path is not None else 0
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "n_pms": n_pms, "save": save, "peak_rss_mb": round(peak, 1),
        "file_bytes": file_bytes, "run_s": round(run_s, 2),
    }


def _child(n_pms: int, save: bool, src: Path) -> Dict[str, Any]:
    """:func:`run_row` in a fresh interpreter, against the package in ``src``."""
    code = (
        f"import sys, json; sys.path.insert(0, {str(src)!r}); sys.path.insert(0, {str(HERE)!r}); "
        f"import bench_checkpoint_peak as b; print(json.dumps(b.run_row({n_pms}, {save})))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], check=True, capture_output=True, text=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def measure(n_pms: int, src: Path, label: str) -> Dict[str, Any]:
    """One row: the no-save run, then the one-save run."""
    bare, saved = _child(n_pms, False, src), _child(n_pms, True, src)
    return {
        "label": label, "n_pms": n_pms, "file_bytes": saved["file_bytes"],
        "file_mib": round(saved["file_bytes"] / 2**20, 1),
        "no_save_mb": bare["peak_rss_mb"], "one_save_mb": saved["peak_rss_mb"],
        "save_frac": round(saved["peak_rss_mb"] / bare["peak_rss_mb"] - 1.0, 3),
    }


def markdown(rows: List[Dict[str, Any]]) -> str:
    lines = [
        "| tree | PMs | file | run peak, no save → one save | the save adds |",
        "|---|---|---|---|---|",
    ]
    for r in rows:
        lines.append(
            f"| {r['label']} | {r['n_pms']:,} | {r['file_mib']} MiB | "
            f"{r['no_save_mb']} → {r['one_save_mb']} MB | {r['save_frac']:+.1%} |"
        )
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--pms", type=int, nargs="+", default=list(ROWS))
    ap.add_argument("--src", type=Path, default=HERE.parent / "src",
                    help="the package tree to measure (default: this checkout's)")
    ap.add_argument("--label", default="change", help="the tree's name in the table")
    ap.add_argument("--check", action="store_true",
                    help=f"exit 1 if a save adds more than {MAX_SAVE_FRAC:.0%} to the peak, "
                         f"or a file outgrows FILE_BYTES by more than {MAX_FILE_GROWTH:.0%}")
    args = ap.parse_args(argv)

    failed = False
    rows = []
    for n_pms in args.pms:
        row = measure(n_pms, args.src.resolve(), args.label)
        rows.append(row)
        print(json.dumps(row, sort_keys=True), flush=True)
        if args.check:
            ok = row["save_frac"] <= MAX_SAVE_FRAC
            failed |= not ok
            print(f"{n_pms} PMs: one save adds {row['save_frac']:+.1%} to the peak, "
                  f"limit {MAX_SAVE_FRAC:+.0%} -> {'OK' if ok else 'FAIL'}")
            if n_pms in FILE_BYTES:
                limit = int(FILE_BYTES[n_pms] * (1.0 + MAX_FILE_GROWTH))
                ok = row["file_bytes"] <= limit
                failed |= not ok
                print(f"{n_pms} PMs: the file is {row['file_bytes']:,} B, "
                      f"limit {limit:,} B -> {'OK' if ok else 'FAIL'}")
    print(markdown(rows))
    return 1 if failed else 0


def test_one_save_row_runs():
    """A 20-PM row in process: the save writes a file, and the fields
    the table reads are there."""
    got = run_row(20, save=True)
    assert got["file_bytes"] > 0 and got["peak_rss_mb"] > 0 and got["save"] is True


if __name__ == "__main__":
    sys.exit(main())
