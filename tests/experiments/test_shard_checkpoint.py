"""Checkpoint/resume of sharded runs, including a real SIGKILL.

A sharded run writes the ordinary packed columns of the one checkpoint
schema plus a plain-JSON ``sharding`` section: the shard count, the
``wan_factor`` and the cross-shard ledger's counters.  The ledger
classifies each message and migration when it happens, so at a save
there is nothing in flight to carry over.

Pinned here:

* one schema: sharded and unsharded checkpoints carry the same
  ``CHECKPOINT_SCHEMA_VERSION``, the former with a ``sharding`` section,
  the latter without; a section in the retired delivery-replay format
  is refused;
* a 4-shard run interrupted at the golden cell's midpoint and resumed
  lands on the pinned golden digest bit-for-bit, with the from-scratch
  run's final ledger state;
* the same checkpoint resumed at a different K is bit-identical too —
  the shard count is accounting, not simulation state;
* a subprocess running a 4-shard run killed with SIGKILL mid-eval
  resumes from its latest checkpoint to exactly the from-scratch
  result and ledger state.
"""

import json
import os
import signal
import subprocess
import sys
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
from repro.experiments.scenarios import Scenario
from repro.experiments.sharding import ShardConfig
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
)
from tests.golden.test_golden_runs import digest_run

REPO_ROOT = Path(__file__).resolve().parents[2]


def test_sharded_checkpoint_is_the_one_schema_plus_sharding_section(tmp_path):
    ckpt = tmp_path / "ck.json"
    run_policy(
        SCENARIO,
        make_policy("GLAP", config=GlapConfig(aggregation_rounds=4)),
        SCENARIO.seed_of(0),
        sharding=ShardConfig(n_shards=4),
        checkpoint_path=ckpt,
    )
    payload = json.loads(ckpt.read_text())
    assert payload["schema_version"] == CHECKPOINT_SCHEMA_VERSION
    assert SUPPORTED_SCHEMA_VERSIONS == (CHECKPOINT_SCHEMA_VERSION,)
    assert not hasattr(repro.checkpoint, "SHARDED_SCHEMA_VERSION")
    section = payload["sharding"]
    assert sorted(section) == ["ledger", "n_shards", "wan_factor"]
    assert (section["n_shards"], section["wan_factor"]) == (4, 0.25)
    ledger = section["ledger"]
    assert sorted(ledger) == sorted([*_PINNED_LEDGER[1], "channels"])
    assert ledger["msgs_inter"] == sum(ledger["channels"].values()) > 0
    # The columns are the unsharded ones: one packed leaf per field.
    for group, n in (("pms", SCENARIO.n_pms), ("vms", SCENARIO.n_vms)):
        for name, leaf in payload["state"][group].items():
            column = unpack_array(leaf, f"{group}/{name}")
            assert len(column) == n, f"{group}/{name} is not a flat column"
    # And the checkpoint loader still validates it.
    load_checkpoint(ckpt)
    # A section that still carries the retired delivery replay's
    # ``pending`` batch and chained ``digest`` is refused by name, the
    # way v1/v2 files are: there is no converter.
    payload["sharding"]["ledger"].update(pending={}, digest="0" * 64)
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


@pytest.mark.parametrize(
    "resume_sharding",
    [None, ShardConfig(n_shards=2)],
    ids=["resume-default", "resume-k2"],
)
def test_midpoint_resume_of_sharded_run_hits_golden(resume_sharding, tmp_path):
    """Interrupt the instrumented 4-shard chaos run one round after its
    midpoint checkpoint; resuming (by default with the checkpoint's own
    sharding, or overridden to a different K) lands on the pinned
    digest exactly — and, at the recorded K, on the uninterrupted run's
    final ledger."""
    ckpt = tmp_path / "ck.json"
    with pytest.raises(_Interrupted):
        _instrumented_run(
            "GLAP",
            tmp_path,
            sharding=ShardConfig(n_shards=4),
            round_hook=_interrupt_after_midpoint,
            checkpoint_every=MIDPOINT,
            checkpoint_path=ckpt,
        )
    payload = json.loads(ckpt.read_text())
    assert payload["schema_version"] == CHECKPOINT_SCHEMA_VERSION
    assert payload["progress"]["eval_rounds_done"] == MIDPOINT

    grab = GrabLedger()
    resumed = resume_policy(
        ckpt,
        make_policy("GLAP", config=GlapConfig(aggregation_rounds=4)),
        sharding=resume_sharding,
        round_hook=grab,
    )
    fixture = json.loads(FIXTURE_PATH.read_text())
    assert digest_run(resumed) == fixture["GLAP/chaos40"]
    if resume_sharding is None:
        assert grab.ledger.shard_map.n_shards == 4
        assert grab.ledger.telemetry_counters() == _PINNED_LEDGER[4]
    else:
        assert grab.ledger.shard_map.n_shards == 2


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
from repro.experiments.scenarios import Scenario
from repro.experiments.sharding import ShardConfig
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
    sharding=ShardConfig(n_shards=4),
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
        sharding=ShardConfig(n_shards=4),
        round_hook=scratch_ledger,
    )
    assert digest_run(resumed) == digest_run(scratch)
    assert (
        resumed_ledger.ledger.checkpoint_section()
        == scratch_ledger.ledger.checkpoint_section()
    )
