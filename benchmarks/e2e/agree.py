"""Run-to-run agreement receipt: the whole benchmark twice on one checkout.

    python3 benchmarks/e2e/agree.py [--seed N]

Runs ``run.py`` twice and reports, per end-to-end metric and workload,
both medians, their ratio and the metric's bound.  Exits non-zero when a
pair of medians differs by more than the bound, when either run failed
an operation, or when a digest or a count differs at all.  Writes
``results/agreement.json``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import DEFAULT_SEED  # noqa: E402
from workloads import COUNT_UNIT, END_TO_END, PER_LAYER  # noqa: E402


def compare(first: Dict[str, Any], second: Dict[str, Any]) -> Dict[str, Any]:
    """Rows for every (workload, metric) of two ledgers' ``runs[seed]`` maps."""
    rows: List[Dict[str, Any]] = []
    exact: List[Dict[str, Any]] = []
    for name in first:
        a, b = first[name], second[name]
        for metric, (unit, _, bound) in END_TO_END.items():
            x = a["untraced"]["metrics"][metric]["value"]
            y = b["untraced"]["metrics"][metric]["value"]
            rows.append({
                "workload": name, "metric": metric, "unit": unit, "first": x, "second": y,
                "ratio": y / x, "bound": bound, "agrees": abs(y / x - 1.0) <= bound,
            })
        same = {
            "failed": [a[k]["failed"] + b[k]["failed"] for k in ("untraced", "traced")] == [0, 0],
            "stats": a["untraced"]["stats"] == b["untraced"]["stats"] == b["traced"]["stats"],
            "counts": all(
                a["traced"]["metrics"][m]["value"] == b["traced"]["metrics"][m]["value"]
                for m, (unit, _) in PER_LAYER.items() if unit == COUNT_UNIT
            ),
        }
        exact.append({"workload": name, **same, "agrees": all(same.values())})
    return {
        "end_to_end": rows, "exact": exact,
        "agrees": all(r["agrees"] for r in rows + exact),
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    args = parser.parse_args(argv)
    receipt = HERE / "results" / "agreement.json"

    ledgers = []
    with tempfile.TemporaryDirectory(dir=HERE, prefix=".agree-") as tmp:
        for i in (1, 2):
            out = Path(tmp) / f"run{i}.json"
            cmd = [sys.executable, str(HERE / "run.py"), "--seed", str(args.seed),
                   "--out", str(out)]
            print(f"run {i} of 2 ...", flush=True)
            proc = subprocess.run(cmd, stdout=subprocess.DEVNULL)
            if not out.exists():
                print(f"run {i} wrote no ledger (exit {proc.returncode})", file=sys.stderr)
                return 2
            ledgers.append(json.loads(out.read_text()))

    seed = str(args.seed)
    report = compare(ledgers[0]["runs"][seed], ledgers[1]["runs"][seed])
    report.update(seed=args.seed, box=ledgers[0]["box"], seconds=ledgers[0]["seconds"])
    for row in report["end_to_end"]:
        print(f"{row['workload']:<22} {row['metric']:<16} {row['first']:>12.5g} "
              f"{row['second']:>12.5g} {row['unit']:<4} ratio {row['ratio']:.4f} "
              f"bound {row['bound']:.2f} {'ok' if row['agrees'] else 'DISAGREES'}")
    for row in report["exact"]:
        print(f"{row['workload']:<22} failed=0:{row['failed']} stats equal:{row['stats']} "
              f"counts equal:{row['counts']}")
    receipt.parent.mkdir(parents=True, exist_ok=True)
    receipt.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    print(f"wrote {receipt}")
    print(json.dumps({"agrees": report["agrees"], "claim": None}))
    return 0 if report["agrees"] else 1


if __name__ == "__main__":
    sys.exit(main())
