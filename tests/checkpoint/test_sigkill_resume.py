"""A run killed with SIGKILL resumes from its latest checkpoint.

A subprocess runs the chaos cell with a checkpoint every few evaluation
rounds and SIGKILLs itself mid-evaluation: no handler, no flush, no
clean-up.  The checkpoint it left on disk resumes to exactly the result
of a from-scratch run.
"""

import json
import os
import signal
import subprocess
import sys
from pathlib import Path

from repro.checkpoint import CHECKPOINT_SCHEMA_VERSION
from repro.core.glap import GlapConfig
from repro.experiments.runner import make_policy, resume_policy, run_policy
from repro.experiments.scenarios import Scenario
from repro.faults import FaultPlan
from repro.traces.google import GoogleTraceParams
from tests.golden.test_golden_runs import digest_run

REPO_ROOT = Path(__file__).resolve().parents[2]

_KILL_SCENARIO = dict(
    n_pms=12, ratio=2, rounds=8, warmup_rounds=8, rounds_per_day=8
)
_KILL_SEED = 977
_KILL_AT_ROUND = 4
_CHECKPOINT_EVERY = 3

_CHILD_SCRIPT = """
import os, signal
from repro.core.glap import GlapConfig
from repro.experiments.runner import make_policy, run_policy
from repro.experiments.scenarios import Scenario
from repro.faults import FaultPlan
from repro.traces.google import GoogleTraceParams

def kill_hard(r, dc, sim):
    if r == {kill_at}:
        os.kill(os.getpid(), signal.SIGKILL)

run_policy(
    Scenario(n_pms={n_pms}, ratio={ratio}, rounds={rounds},
             warmup_rounds={warmup_rounds}, repetitions=1,
             trace_params=GoogleTraceParams(rounds_per_day={rounds_per_day}),
             faults=FaultPlan.message_loss(0.2)),
    make_policy("GLAP", config=GlapConfig(aggregation_rounds=2)),
    {seed},
    checkpoint_every={every},
    checkpoint_path={ckpt!r},
    round_hook=kill_hard,
)
raise SystemExit("unreachable: the run should have been SIGKILLed")
"""


def _kill_scenario() -> Scenario:
    return Scenario(
        n_pms=_KILL_SCENARIO["n_pms"],
        ratio=_KILL_SCENARIO["ratio"],
        rounds=_KILL_SCENARIO["rounds"],
        warmup_rounds=_KILL_SCENARIO["warmup_rounds"],
        repetitions=1,
        trace_params=GoogleTraceParams(
            rounds_per_day=_KILL_SCENARIO["rounds_per_day"]
        ),
        faults=FaultPlan.message_loss(0.2),
    )


def test_sigkilled_run_resumes_to_from_scratch_result(tmp_path):
    ckpt = tmp_path / "ck.json"
    script = _CHILD_SCRIPT.format(
        kill_at=_KILL_AT_ROUND,
        seed=_KILL_SEED,
        every=_CHECKPOINT_EVERY,
        ckpt=str(ckpt),
        **_KILL_SCENARIO,
    )
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env=env,
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    # The child died from the signal, not from finishing.
    assert proc.returncode == -signal.SIGKILL, proc.stderr

    payload = json.loads(ckpt.read_text())
    assert payload["schema_version"] == CHECKPOINT_SCHEMA_VERSION
    assert payload["progress"]["eval_rounds_done"] == _CHECKPOINT_EVERY

    resumed = resume_policy(
        ckpt, make_policy("GLAP", config=GlapConfig(aggregation_rounds=2))
    )
    scratch = run_policy(
        _kill_scenario(),
        make_policy("GLAP", config=GlapConfig(aggregation_rounds=2)),
        _KILL_SEED,
    )
    assert digest_run(resumed) == digest_run(scratch)
