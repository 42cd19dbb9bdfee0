"""Whole-run benchmark ledger with per-layer attribution.

    python3 benchmarks/e2e/run.py                       # every workload, both kinds of run
    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

Each measurement is a fresh single-threaded child process (``cell.py``),
so nothing is warm by accident and ``peak_rss_mb`` is per cell.  This
parent imports nothing of the program and stays a few MB.  The seed only
ever reaches the program as the ``seed`` of ``build_trace``/``run_policy``.

* ``--trace 0``: repeat the *untraced* cell (``build_trace`` +
  ``run_policy``, as ``glap run`` does) for ``--seconds`` and report the
  median of each end-to-end metric, times in reference seconds (wall
  seconds x the core speed ``probe.py`` measured during that cell).
* ``--trace 1``: alternate the untraced cell and the *traced* cell (at
  least twice each) and report the median of each per-layer metric.
* no ``--trace``: both, for every selected workload and seed; prints
  every metric with its unit and writes ``results/latest.json``.

The last line of stdout is one JSON object.  Exit status is non-zero
when any operation or output check failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

from workloads import COUNT_UNIT, END_TO_END, PER_LAYER, WORKLOADS, Workload  # noqa: E402

DEFAULT_SEED = 2016
#: One cell may not hang the 180 s the driver allows a whole invocation.
CELL_TIMEOUT_S = 150
#: Simulated statistics stored beside the metrics; identical on every
#: run of one (workload, seed), traced or not.
STATS = ("result_digest", "total_migrations", "final_active", "final_overloaded", "slav")


def run_cell(
    w: Workload, seed: int, kind: str, smoke: bool, workdir: Path
) -> Optional[Dict[str, Any]]:
    """Run one cell in a child; ``None`` when it crashed or timed out.

    ``kind``: "probed" (untraced with the speed probe, for end-to-end
    metrics), "plain" (untraced, no probe) or "traced".
    """
    env = dict(os.environ)
    # One compute thread: the cell is the unit of measurement, and a BLAS
    # pool sized to the host would make run_s depend on the box's cores.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    # str hashes (hence dict layouts, hence timing) the same in every child.
    env["PYTHONHASHSEED"] = "0"
    cmd = [
        sys.executable, str(HERE / "cell.py"),
        "--workload", w.name, "--seed", str(seed), "--smoke", str(int(smoke)),
        "--traced", str(int(kind == "traced")), "--probe", str(int(kind == "probed")),
        "--workdir", str(workdir), "--t-spawn", repr(time.monotonic()),
    ]
    try:
        proc = subprocess.run(
            cmd, env=env, capture_output=True, text=True, timeout=CELL_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        print(f"{w.name}: cell timed out after {CELL_TIMEOUT_S} s", file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(f"{w.name}: cell exited {proc.returncode}\n{proc.stderr}", file=sys.stderr)
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_passes(
    w: Workload, seed: int, kinds: Sequence[str], smoke: bool, workdir: Path,
    seconds: float, repeats: Optional[int], at_least: int,
) -> Dict[str, List[Optional[Dict[str, Any]]]]:
    """Passes of one cell per kind, until another pass would overrun
    ``seconds`` — or exactly ``repeats`` passes."""
    deadline = time.monotonic() + seconds
    cells: Dict[str, List[Optional[Dict[str, Any]]]] = {kind: [] for kind in kinds}
    passes = 0
    while True:
        started = time.monotonic()
        for kind in kinds:
            cells[kind].append(run_cell(w, seed, kind, smoke, workdir))
        passes += 1
        now = time.monotonic()
        if repeats is not None:
            if passes >= max(repeats, at_least):
                return cells
        elif passes >= at_least and now + (now - started) > deadline:
            return cells


def summarise(values: Sequence[float]) -> Dict[str, float]:
    return {
        "median": statistics.median(values), "min": min(values),
        "max": max(values), "n": len(values),
    }


class Ledger:
    """Operations attempted/failed and named output checks of one measurement."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []

    def rounds(self, w: Workload, cell: Optional[Dict[str, Any]]) -> None:
        # A cell that raises fails every round it did not finish; a crashed
        # child reports nothing, so all of its rounds count as failed.
        self.attempted += w.total_rounds
        if cell is None:
            self.failed += w.total_rounds
            self.failures.append("cell crashed")

    def check(self, name: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(name)


def measure_untraced(
    w: Workload, seed: int, seconds: float, repeats: Optional[int], smoke: bool, workdir: Path
) -> Dict[str, Any]:
    ledger = Ledger()
    cells = run_passes(
        w, seed, ("probed",), smoke, workdir, seconds, repeats, at_least=1
    )["probed"]
    for cell in cells:
        ledger.rounds(w, cell)
    good = [c for c in cells if c is not None]
    out: Dict[str, Any] = {"metrics": {}, "detail": {}, "stats": {}}
    if good:
        ledger.check("untraced repeats share one digest",
                     len({c["result_digest"] for c in good}) == 1)
        # Times in reference seconds: each cell's wall time x its own
        # measured core speed (probe.py); raw wall seconds kept beside them.
        series = {
            "setup_s": [c["setup_s"] * c["speed"] for c in good],
            "run_s": [c["run_s"] * c["speed"] for c in good],
            "wall_s": [(c["setup_s"] + c["run_s"]) * c["speed"] for c in good],
            "pm_rounds_per_s": [
                w.n_pms * w.total_rounds / (c["run_s"] * c["speed"]) for c in good
            ],
            "peak_rss_mb": [c["peak_rss_mb"] for c in good],
            "raw_setup_s": [c["setup_s"] for c in good],
            "raw_run_s": [c["run_s"] for c in good],
            "speed": [c["speed"] for c in good],
        }
        out["detail"] = {name: summarise(values) for name, values in series.items()}
        for name, (unit, _, _) in END_TO_END.items():
            out["metrics"][name] = {"value": out["detail"][name]["median"], "unit": unit}
        out["stats"] = {k: good[0][k] for k in STATS}
    return finish(out, ledger)


def measure_traced(
    w: Workload, seed: int, seconds: float, repeats: Optional[int], smoke: bool, workdir: Path
) -> Dict[str, Any]:
    ledger = Ledger()
    # Untraced and traced cells alternate, so the tracing overhead compares
    # two medians taken over the same stretch of a noisy box.
    cells = run_passes(
        w, seed, ("plain", "traced"), smoke, workdir, seconds, repeats, at_least=2
    )
    for cell in cells["plain"] + cells["traced"]:
        ledger.rounds(w, cell)
    plain = [c for c in cells["plain"] if c is not None]
    traced = [c for c in cells["traced"] if c is not None]
    out: Dict[str, Any] = {"metrics": {}, "detail": {}, "stats": {}}
    if plain and traced:
        for cell in traced:
            for name, ok in cell["checks"].items():
                ledger.check(name, ok)
        # Harness honesty: the outside-in loop must reproduce run_policy.
        ledger.check("traced digest equals run_policy digest",
                     {c["result_digest"] for c in traced} == {plain[0]["result_digest"]})
        layers = [c["layer"] for c in traced]
        counts = [name for name, (unit, _) in PER_LAYER.items() if unit == COUNT_UNIT]
        ledger.check("counts repeat across traced runs",
                     all(layer[n] == layers[0][n] for layer in layers for n in counts))
        traced_run_s = statistics.median(c["run_s"] for c in traced)
        untraced_run_s = statistics.median(c["run_s"] for c in plain)
        for layer in layers:
            layer["experiments.trace_overhead_frac"] = traced_run_s / untraced_run_s - 1.0
        for name, (unit, _) in PER_LAYER.items():
            out["detail"][name] = summarise([layer[name] for layer in layers])
            out["metrics"][name] = {"value": out["detail"][name]["median"], "unit": unit}
        out["stats"] = {k: traced[0][k] for k in STATS}
        out["traced_run_s"] = traced_run_s
        out["untraced_run_s"] = untraced_run_s
        out["layer_share"] = {
            key: statistics.median(c["layer_share"].get(key, 0.0) for c in traced)
            for key in sorted({k for c in traced for k in c["layer_share"]})
        }
        out["spans"] = traced[0]["spans"]
    return finish(out, ledger)


def finish(out: Dict[str, Any], ledger: Ledger) -> Dict[str, Any]:
    out.update(
        correct=ledger.failed == 0, attempted=ledger.attempted,
        failed=ledger.failed, failures=ledger.failures,
    )
    return out


def contract_line(measured: Dict[str, Any]) -> str:
    """The driver's result object: exactly these four keys."""
    return json.dumps({k: measured[k] for k in ("correct", "attempted", "failed", "metrics")})


def print_metrics(title: str, measured: Dict[str, Any]) -> None:
    print(f"\n== {title}  attempted={measured['attempted']} failed={measured['failed']}")
    for failure in measured["failures"]:
        print(f"   FAILED: {failure}")
    for name, metric in measured["metrics"].items():
        d = measured["detail"][name]
        print(f"   {name:<42} {metric['value']:>16.6g} {metric['unit']:<6}"
              f" (min {d['min']:.6g}, max {d['max']:.6g}, n={d['n']})")
    for name in ("raw_setup_s", "raw_run_s", "speed"):
        if name in measured["detail"]:
            d = measured["detail"][name]
            print(f"   {name:<42} {d['median']:>16.6g}        "
                  f" (min {d['min']:.6g}, max {d['max']:.6g}, n={d['n']})")
    for key, value in measured["stats"].items():
        print(f"   {key:<42} {value}")
    for key, value in measured.get("layer_share", {}).items():
        print(f"   share of run_s: {key:<26} {value:>8.1%}")


def box() -> Dict[str, Any]:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "platform": platform.platform(),
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    run_seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), default=None,
                        help="one workload (default: all)")
    parser.add_argument("--seed", type=int, nargs="+", default=[DEFAULT_SEED],
                        help=f"workload seed(s) (default {DEFAULT_SEED})")
    parser.add_argument("--seconds", type=float, default=run_seconds,
                        help="how long one measurement repeats its cell")
    parser.add_argument("--repeats", type=int, default=None,
                        help="repeat each cell exactly K times instead of for --seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end metrics only, 1: per-layer metrics only")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny cells, one repeat: exercises the harness, measures nothing")
    parser.add_argument("--out", type=Path, default=None,
                        help="where the full ledger is written when --trace is not given "
                        "(default: results/latest.json; nowhere with --smoke)")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"{ROOT / 'src' / 'repro'}: the program under test is missing", file=sys.stderr)
        return 2
    if args.smoke and args.repeats is None:
        args.repeats = 1

    names = [args.workload] if args.workload else list(WORKLOADS)
    workdir = HERE / ".work" / str(os.getpid())
    ledger: Dict[str, Any] = {"schema": "glap-e2e-ledger/1", "box": box(), "smoke": args.smoke,
                              "seconds": args.seconds, "repeats": args.repeats, "runs": {}}
    ok = True
    last: Dict[str, Any] = {}
    try:
        for seed in args.seed:
            per_seed = ledger["runs"].setdefault(str(seed), {})
            for name in names:
                w = WORKLOADS[name].at_scale(args.smoke)
                entry = per_seed.setdefault(name, {"n_pms": w.n_pms, "n_vms": w.n_pms * w.ratio,
                                                   "total_rounds": w.total_rounds})
                for trace, measure in ((0, measure_untraced), (1, measure_traced)):
                    if args.trace in (None, trace):
                        kind = "traced" if trace else "untraced"
                        last = measure(w, seed, args.seconds, args.repeats, args.smoke, workdir)
                        entry[kind] = last
                        ok = ok and last["correct"]
                        print_metrics(f"{name} seed={seed} {kind}", last)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace is not None and args.workload and len(args.seed) == 1:
        print(contract_line(last))
    else:
        out = args.out
        if out is None and not args.smoke:
            out = HERE / "results" / "latest.json"
        if args.trace is None and out is not None:
            out.parent.mkdir(parents=True, exist_ok=True)
            out.write_text(json.dumps(ledger, indent=1) + "\n")
            print(f"\nwrote {out}")
        print(json.dumps({"correct": ok, "workloads": names, "seeds": args.seed, "claim": None}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
