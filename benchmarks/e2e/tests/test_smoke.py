"""The whole harness at ``--smoke`` scale: every workload, both kinds of run."""

import json
import subprocess
import sys
import time
from pathlib import Path

from workloads import END_TO_END, PER_LAYER, WORKLOADS

RUN = Path(__file__).resolve().parents[1] / "run.py"


def run(*args, cwd=None):
    proc = subprocess.run(
        [sys.executable, str(RUN), *args], capture_output=True, text=True, cwd=cwd
    )
    return proc, proc.stdout.strip().splitlines()


def test_smoke_ledger_runs_every_workload(tmp_path):
    out = tmp_path / "ledger.json"
    started = time.monotonic()
    proc, lines = run("--smoke", "--out", str(out))
    assert time.monotonic() - started < 30  # < 15 s on the sizing box
    assert proc.returncode == 0, proc.stderr
    assert json.loads(lines[-1]) == {
        "correct": True, "workloads": list(WORKLOADS), "seeds": [2016], "claim": None
    }
    runs = json.loads(out.read_text())["runs"]["2016"]
    assert list(runs) == list(WORKLOADS)
    for name, entry in runs.items():
        untraced, traced = entry["untraced"], entry["traced"]
        assert untraced["failed"] == 0 and traced["failed"] == 0, name
        assert set(untraced["metrics"]) == set(END_TO_END)
        assert set(traced["metrics"]) == set(PER_LAYER)
        assert untraced["stats"] == traced["stats"]
        assert traced["detail"]["traces.cells"]["n"] >= 2  # counts compared across runs
        assert traced["metrics"]["experiments.residual_frac"]["value"] < 0.05
        # Per-layer medians over the traced cells: they add up to ~1, not exactly.
        assert abs(sum(traced["layer_share"].values()) - 1.0) < 0.05
    observed = runs["grmp_observed_2k"]["traced"]["metrics"]
    assert observed["checkpoint.saves"]["value"] == 3
    assert observed["obs.tracer_events"]["value"] > 0
    assert observed["checkpoint.restore_s"]["value"] > 0
    for name in set(runs) - {"grmp_observed_2k"}:
        metrics = runs[name]["traced"]["metrics"]
        assert metrics["obs.tracer_emit_s"]["value"] == 0 == metrics["checkpoint.save_s"]["value"]
    # No scratch files survive a run.
    assert not list((RUN.parent / ".work").glob("*"))


def test_driver_mode_prints_the_contract_object():
    for trace, expected in ((0, END_TO_END), (1, PER_LAYER)):
        proc, lines = run(
            "--workload", "glap_consolidate_500", "--seed", "7", "--seconds", "1",
            "--trace", str(trace), "--smoke",
        )
        assert proc.returncode == 0, proc.stderr
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert result["attempted"] >= 1
        assert {n: m["unit"] for n, m in result["metrics"].items()} == {
            n: spec[0] for n, spec in expected.items()
        }


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    # The driver also runs the benchmark where only BENCHMARK.json and the
    # benchmark's own files exist: that must exit non-zero, quickly.
    import shutil

    root = Path(__file__).resolve().parents[3]
    shutil.copy(root / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        RUN.parent, tmp_path / "benchmarks" / "e2e",
        ignore=shutil.ignore_patterns("__pycache__", ".work", ".pytest_cache"),
    )
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "glap_paper_300",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
