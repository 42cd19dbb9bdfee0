"""Checkpoint/resume of sharded runs, including a real SIGKILL.

A sharded run writes the ordinary packed columns of the one checkpoint
schema.  Its layout (``ShardConfig``) is part of the scenario, stored
once in the ``scenario`` section, and the cross-shard ledger's counters
are state, under ``state["ledger"]``.  The ledger classifies each
message and migration when it happens, so at a save there is nothing in
flight to carry over.

Pinned here:

* one schema: sharded and unsharded checkpoints carry the same
  ``CHECKPOINT_SCHEMA_VERSION`` and no top-level ``sharding`` section;
  an older file's section in the retired delivery-replay format is
  refused;
* a 4-shard run interrupted at the golden cell's midpoint and resumed
  lands on the pinned golden digest bit-for-bit, with the from-scratch
  run's final ledger state — and so does the same checkpoint rewritten
  into the older layout (the layout and counters in a top-level
  ``sharding`` section);
* a subprocess running a 4-shard run killed with SIGKILL mid-eval
  resumes from its latest checkpoint to exactly the from-scratch
  result and ledger state.
"""

import json
import os
import signal
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import repro.checkpoint
from repro.checkpoint import (
    CHECKPOINT_SCHEMA_VERSION,
    SUPPORTED_SCHEMA_VERSIONS,
    load_checkpoint,
)
from repro.core.glap import GlapConfig
from repro.experiments.runner import make_policy, resume_policy, run_policy
from repro.experiments.scenarios import Scenario, ShardConfig
from repro.faults import FaultPlan
from repro.traces.google import GoogleTraceParams
from repro.util.io import unpack_array
from tests.experiments.test_sharding import _PINNED_LEDGER, GrabLedger
from tests.golden.test_golden_columnar_cell import (
    FIXTURE_PATH,
    MIDPOINT,
    SCENARIO,
    _instrumented_run,
    _Interrupted,
    _interrupt_after_midpoint,
    sharded,
)
from tests.golden.test_golden_runs import digest_run

REPO_ROOT = Path(__file__).resolve().parents[2]


def test_sharded_checkpoint_keeps_its_layout_in_the_scenario(tmp_path):
    ckpt = tmp_path / "ck.json"
    run_policy(
        replace(SCENARIO, sharding=ShardConfig(n_shards=4)),
        make_policy("GLAP", config=GlapConfig(aggregation_rounds=4)),
        SCENARIO.seed_of(0),
        checkpoint_path=ckpt,
    )
    payload = json.loads(ckpt.read_text())
    assert payload["schema_version"] == CHECKPOINT_SCHEMA_VERSION
    assert SUPPORTED_SCHEMA_VERSIONS == (CHECKPOINT_SCHEMA_VERSION,)
    assert not hasattr(repro.checkpoint, "SHARDED_SCHEMA_VERSION")
    # The layout is stored once, in the scenario; the counters are state.
    assert "sharding" not in payload
    assert payload["scenario"]["sharding"] == {"n_shards": 4, "wan_factor": 0.25}
    ledger = payload["state"]["ledger"]
    assert sorted(ledger) == sorted([*_PINNED_LEDGER[1], "channels"])
    assert ledger["msgs_inter"] == sum(ledger["channels"].values()) > 0
    # The columns are the unsharded ones: one packed leaf per field.
    for group, n in (("pms", SCENARIO.n_pms), ("vms", SCENARIO.n_vms)):
        for name, leaf in payload["state"][group].items():
            column = unpack_array(leaf, f"{group}/{name}")
            assert len(column) == n, f"{group}/{name} is not a flat column"
    # And the checkpoint loader still validates it.
    load_checkpoint(ckpt)
    # An older file whose ``sharding`` section still carries the retired
    # delivery replay's ``pending`` batch and chained ``digest`` is
    # refused by name, the way v1/v2 files are: there is no converter.
    payload["sharding"] = {
        "n_shards": 4,
        "wan_factor": 0.25,
        "ledger": dict(payload["state"].pop("ledger"), pending={}, digest="0" * 64),
    }
    ckpt.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match=r"\['digest', 'pending'\]"):
        load_checkpoint(ckpt)


def test_unsharded_checkpoint_has_no_sharding_section(tmp_path):
    ckpt = tmp_path / "ck.json"
    run_policy(
        SCENARIO,
        make_policy("GLAP", config=GlapConfig(aggregation_rounds=4)),
        SCENARIO.seed_of(0),
        checkpoint_path=ckpt,
    )
    payload = json.loads(ckpt.read_text())
    assert payload["schema_version"] == CHECKPOINT_SCHEMA_VERSION
    assert "sharding" not in payload
    assert payload["scenario"]["sharding"] is None
    assert payload["state"]["ledger"] is None


def _midpoint_checkpoint(tmp_path: Path) -> Path:
    """The instrumented 4-shard chaos run, interrupted one round after
    its midpoint checkpoint."""
    ckpt = tmp_path / "ck.json"
    with pytest.raises(_Interrupted):
        _instrumented_run(
            "GLAP",
            tmp_path,
            scenario=sharded(4),
            round_hook=_interrupt_after_midpoint,
            checkpoint_every=MIDPOINT,
            checkpoint_path=ckpt,
        )
    payload = json.loads(ckpt.read_text())
    assert payload["schema_version"] == CHECKPOINT_SCHEMA_VERSION
    assert payload["progress"]["eval_rounds_done"] == MIDPOINT
    return ckpt


def _resumes_to_golden(ckpt: Path) -> None:
    """Resuming ``ckpt`` lands on the pinned digest exactly, at the
    checkpointed K, with the uninterrupted run's final ledger."""
    grab = GrabLedger()
    resumed = resume_policy(
        ckpt,
        make_policy("GLAP", config=GlapConfig(aggregation_rounds=4)),
        round_hook=grab,
    )
    fixture = json.loads(FIXTURE_PATH.read_text())
    assert digest_run(resumed) == fixture["GLAP/chaos40"]
    assert grab.ledger.shard_map.n_shards == 4
    assert grab.ledger.telemetry_counters() == _PINNED_LEDGER[4]


def test_midpoint_resume_of_sharded_run_hits_golden(tmp_path):
    _resumes_to_golden(_midpoint_checkpoint(tmp_path))


def test_older_layout_sharded_checkpoint_resumes_to_golden(tmp_path):
    """Older files stored the layout and the ledger's counters in a
    top-level ``sharding`` section beside a scenario without one; the
    restore folds it into the scenario and the state, so such a file
    still resumes to the golden digest and the pinned ledger."""
    ckpt = _midpoint_checkpoint(tmp_path)
    payload = json.loads(ckpt.read_text())
    scenario, state = payload["scenario"], payload["state"]
    payload["sharding"] = {**scenario.pop("sharding"), "ledger": state.pop("ledger")}
    assert payload["sharding"]["n_shards"] == 4
    ckpt.write_text(json.dumps(payload))
    _resumes_to_golden(ckpt)


# -- real SIGKILL ------------------------------------------------------------

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
from repro.experiments.scenarios import Scenario, ShardConfig
from repro.faults import FaultPlan
from repro.traces.google import GoogleTraceParams

def kill_hard(r, dc, sim):
    if r == {kill_at}:
        os.kill(os.getpid(), signal.SIGKILL)

run_policy(
    Scenario(n_pms={n_pms}, ratio={ratio}, rounds={rounds},
             warmup_rounds={warmup_rounds}, repetitions=1,
             trace_params=GoogleTraceParams(rounds_per_day={rounds_per_day}),
             faults=FaultPlan.message_loss(0.2),
             sharding=ShardConfig(n_shards=4)),
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
        sharding=ShardConfig(n_shards=4),
    )


def test_sigkilled_sharded_run_resumes_to_from_scratch_result(tmp_path):
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

    resumed_ledger, scratch_ledger = GrabLedger(), GrabLedger()
    resumed = resume_policy(
        ckpt,
        make_policy("GLAP", config=GlapConfig(aggregation_rounds=2)),
        round_hook=resumed_ledger,
    )
    scratch = run_policy(
        _kill_scenario(),
        make_policy("GLAP", config=GlapConfig(aggregation_rounds=2)),
        _KILL_SEED,
        round_hook=scratch_ledger,
    )
    assert digest_run(resumed) == digest_run(scratch)
    assert resumed_ledger.ledger.state_dict() == scratch_ledger.ledger.state_dict()
    assert resumed_ledger.ledger.shard_map == scratch_ledger.ledger.shard_map
