"""Start-up loads only what a run executes (DESIGN.md "Package layout").

The load checks run in a fresh interpreter, because this process has
long since imported the whole tree.  ``import repro`` must load no
submodule and no numpy; importing the runner must not load the
sweep/figure/report modules or the sinks only a caller can switch on;
and once its rounds start, a run must load no ``repro`` module at all.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))

#: Modules ``import repro.experiments.runner`` must leave unloaded.
NOT_LOADED_BY_RUNNER = (
    "repro.experiments.parallel",
    "repro.experiments.figures",
    "repro.experiments.store",
    "repro.experiments.expectations",
    "repro.obs.analytics",
    "repro.obs.compare",
    "repro.obs.summary",
    "repro.obs.watch",
)


def _python(code: str) -> str:
    """Run ``code`` in a fresh interpreter with ``src`` on the path."""
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _modules_after(statement: str) -> set:
    out = _python(f"import json, sys\n{statement}\nprint(json.dumps(sorted(sys.modules)))")
    return set(json.loads(out.splitlines()[-1]))


def test_import_repro_loads_no_submodule_and_no_numpy():
    loaded = _modules_after("import repro")
    assert sorted(m for m in loaded if m.startswith("repro")) == ["repro"]
    assert "numpy" not in loaded


def test_runner_loads_no_sweep_module_and_no_caller_built_sink():
    loaded = _modules_after("import repro.experiments.runner")
    assert "repro.experiments.runner" in loaded
    assert sorted(set(NOT_LOADED_BY_RUNNER) & loaded) == []


#: ``run_policy`` of every policy with every optional part on: tracer,
#: profiler, telemetry (gauges every round), heartbeat (its event ring
#: included), checkpoints, faults and invariants.  The profiler marks the
#: first round; from there to the result no ``repro`` module may load.
ROUNDS_LOAD_NOTHING = """
import json, sys, tempfile
from pathlib import Path
from repro.experiments.runner import make_policy, run_policy
from repro.experiments.scenarios import Scenario
from repro.faults.plan import FaultPlan
from repro.obs.heartbeat import HeartbeatWriter
from repro.obs.profiler import PhaseProfiler
from repro.obs.telemetry import TelemetryRegistry
from repro.obs.tracer import RecordingTracer


def loaded():
    return {m for m in sys.modules if m.startswith("repro")}


class FirstRoundMark(PhaseProfiler):
    at_first_round = None

    def phase(self, name):
        if self.at_first_round is None:
            self.at_first_round = loaded()
        return super().phase(name)


grew = {}
for name in ("GLAP", "EcoCloud", "GRMP", "PABFD"):
    scenario = Scenario(
        n_pms=12, ratio=2, rounds=4, warmup_rounds=35, check_invariants=True,
    ).with_faults(FaultPlan(churn_probability=0.05))
    out = Path(tempfile.mkdtemp())
    mark = FirstRoundMark()
    run_policy(
        scenario, make_policy(name), 1, tracer=RecordingTracer(), profiler=mark,
        telemetry=TelemetryRegistry(gauge_every=1),
        heartbeat=HeartbeatWriter(out / "hb.jsonl"),
        checkpoint_every=2, checkpoint_path=out / "ck.json",
    )
    grew[name] = sorted(loaded() - mark.at_first_round)
print(json.dumps(grew))
"""


def test_a_run_loads_no_module_once_its_rounds_start():
    grew = json.loads(_python(ROUNDS_LOAD_NOTHING).splitlines()[-1])
    assert grew == {"GLAP": [], "EcoCloud": [], "GRMP": [], "PABFD": []}


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        repro.no_such_name
    assert not hasattr(repro, "no_such_name")


@pytest.mark.parametrize("path", EXAMPLES, ids=[p.stem for p in EXAMPLES])
def test_example_imports_cleanly(path):
    # Loaded under a non-"__main__" name, so the guard keeps main() from running.
    _python(
        "import importlib.util\n"
        f"spec = importlib.util.spec_from_file_location('example', {str(path)!r})\n"
        "spec.loader.exec_module(importlib.util.module_from_spec(spec))"
    )
