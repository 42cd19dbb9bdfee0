"""Names and limits of the benchmark contract, and BENCHMARK.json in step."""

import json
import re
from pathlib import Path

from workloads import END_TO_END, PER_LAYER, WORKLOADS

ROOT = Path(__file__).resolve().parents[3]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_names_units_and_limits():
    assert 2 <= len(WORKLOADS) <= 8
    assert 1 <= len(END_TO_END) <= 16
    assert 1 <= len(PER_LAYER) <= 128
    names = list(WORKLOADS) + list(END_TO_END) + list(PER_LAYER)
    assert len(set(names)) == len(names)
    for name in names:
        assert NAME.fullmatch(name), name
    for unit in [u for u, _, _ in END_TO_END.values()] + [u for u, _ in PER_LAYER.values()]:
        assert UNIT.fullmatch(unit), unit
    for w in WORKLOADS.values():
        assert len(w.why) <= 200 and "\n" not in w.why
    assert END_TO_END["setup_s"][:2] == ("s", "lower")
    bounds = [bound for _, _, bound in END_TO_END.values()]
    assert max(bounds) <= 0.25 and END_TO_END["setup_s"][2] == max(bounds)


def test_benchmark_json_lists_exactly_what_run_py_emits():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(doc) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert doc["paths"] == ["benchmarks/e2e"]
    assert doc["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert [(w["name"], w["why"]) for w in doc["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()
    ]
    assert {
        m["name"]: (m["unit"], m["better"], m["bound"]) for m in doc["end_to_end"]
    } == END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in doc["per_layer"]} == PER_LAYER
    # 4 + 22 runs per workload, each a little over run_seconds, inside the cap.
    runs = 4 + 22 * len(doc["workloads"])
    assert runs * (doc["run_seconds"] + 5) <= 3420
