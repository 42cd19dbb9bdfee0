"""Checkpoint-equivalence: interrupted-and-resumed == never-stopped.

The strongest correctness statement this repo can make about resume is
bit-identity against the *golden fixtures*: a run checkpointed at its
midpoint, abandoned, and restored — in-process or in a **fresh
process** — must produce the exact digest the golden suite pins for the
uninterrupted run.  Covered for every policy, clean and under the
canonical chaos plan, with tracing enabled on both sides of the cut.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.experiments.runner import (
    POLICY_NAMES,
    make_policy,
    resume_policy,
    run_policy,
)
from repro.obs.tracer import JsonlTracer
from tests.golden.test_golden_runs import (
    GOLDEN_PATH,
    POLICY_KWARGS,
    SCENARIO,
    VARIANTS,
    digest_run,
)

REPO_ROOT = Path(__file__).resolve().parents[2]
MIDPOINT = 8  # of SCENARIO.rounds == 15


class _Interrupted(Exception):
    pass


def _interrupt_after_midpoint(r, dc, sim):
    # The checkpoint for eval round MIDPOINT is written at the end of
    # iteration r == MIDPOINT - 1; dying one round later proves the file
    # on disk — not the aborted process — carries the run.
    if r == MIDPOINT:
        raise _Interrupted


def _run_until_midpoint(policy_name: str, variant: str, ckpt: Path, tracer=None):
    with pytest.raises(_Interrupted):
        run_policy(
            VARIANTS[variant],
            make_policy(policy_name, **POLICY_KWARGS.get(policy_name, {})),
            SCENARIO.seed_of(0),
            round_hook=_interrupt_after_midpoint,
            tracer=tracer,
            checkpoint_every=MIDPOINT,
            checkpoint_path=ckpt,
        )
    payload = json.loads(ckpt.read_text())
    assert payload["progress"]["eval_rounds_done"] == MIDPOINT


def _golden(key: str) -> dict:
    return json.loads(GOLDEN_PATH.read_text())[key]


@pytest.mark.parametrize("policy_name", POLICY_NAMES)
@pytest.mark.parametrize("variant", ["clean", "chaos"])
def test_midpoint_resume_matches_golden(policy_name, variant, tmp_path):
    """In-process resume from a midpoint checkpoint hits the golden digest."""
    ckpt = tmp_path / "ck.json"
    _run_until_midpoint(policy_name, variant, ckpt)
    result = resume_policy(
        ckpt, make_policy(policy_name, **POLICY_KWARGS.get(policy_name, {}))
    )
    assert digest_run(result) == _golden(f"{policy_name}/{variant}")


@pytest.mark.parametrize("policy_name", POLICY_NAMES)
def test_resume_preserves_telemetry_series_exactly(policy_name, tmp_path):
    """Telemetry across a checkpoint cut == telemetry of an unbroken run.

    The registry's totals, gauge samples and round count ride in the
    checkpoint, so a run interrupted at its midpoint and resumed with a
    *fresh* registry must end with state bit-identical to the
    never-stopped instrumented run.
    """
    from repro.obs.telemetry import TelemetryRegistry

    kwargs = POLICY_KWARGS.get(policy_name, {})

    unbroken = TelemetryRegistry(gauge_every=5)
    result = run_policy(
        SCENARIO,
        make_policy(policy_name, **kwargs),
        SCENARIO.seed_of(0),
        telemetry=unbroken,
    )

    ckpt = tmp_path / "ck.json"
    first_half = TelemetryRegistry(gauge_every=5)
    with pytest.raises(_Interrupted):
        run_policy(
            SCENARIO,
            make_policy(policy_name, **kwargs),
            SCENARIO.seed_of(0),
            round_hook=_interrupt_after_midpoint,
            telemetry=first_half,
            checkpoint_every=MIDPOINT,
            checkpoint_path=ckpt,
        )
    second_half = TelemetryRegistry()  # gauge_every restored from the checkpoint
    resumed = resume_policy(
        ckpt,
        make_policy(policy_name, **kwargs),
        telemetry=second_half,
    )

    assert digest_run(resumed) == digest_run(result)
    assert second_half.state_dict() == unbroken.state_dict()
    # the cut really happened mid-run
    assert first_half.rounds_observed < unbroken.rounds_observed


_RESUME_SCRIPT = """
import json, sys
sys.path.insert(0, @SRC@)
sys.path.insert(0, @ROOT@)
from repro.experiments.runner import make_policy, resume_policy
from repro.obs.tracer import JsonlTracer
from tests.golden.test_golden_runs import POLICY_KWARGS, digest_run

ckpt, policy_name, trace_path = sys.argv[1], sys.argv[2], sys.argv[3]
tracer = JsonlTracer(trace_path) if trace_path != "-" else None
result = resume_policy(
    ckpt, make_policy(policy_name, **POLICY_KWARGS.get(policy_name, {})),
    tracer=tracer,
)
if tracer is not None:
    tracer.close()
print(json.dumps(digest_run(result)))
"""


@pytest.mark.parametrize("policy_name", POLICY_NAMES)
def test_cross_process_resume_matches_golden(policy_name, tmp_path):
    """The acceptance bar: checkpoint at midpoint with faults *and* tracing
    active, restore in a fresh interpreter, and land on the golden chaos
    digest bit-for-bit."""
    ckpt = tmp_path / "ck.json"
    tracer = JsonlTracer(tmp_path / "first-half.jsonl")
    try:
        _run_until_midpoint(policy_name, "chaos", ckpt, tracer=tracer)
    finally:
        tracer.close()

    script = _RESUME_SCRIPT.replace("@SRC@", repr(str(REPO_ROOT / "src"))).replace(
        "@ROOT@", repr(str(REPO_ROOT))
    )
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            script,
            str(ckpt),
            policy_name,
            str(tmp_path / "second-half.jsonl"),
        ],
        capture_output=True,
        text=True,
        env={**os.environ},
        check=False,
    )
    assert proc.returncode == 0, proc.stderr
    digest = json.loads(proc.stdout)
    assert digest == _golden(f"{policy_name}/chaos")
    # The resumed half emitted a real trace of its own.
    assert (tmp_path / "second-half.jsonl").stat().st_size > 0


#: The bandwidth-aware GLAP cell: partitioned exchange plus a token
#: budget tight enough to defer some exchanges at this scale, so the
#: checkpoint carries non-trivial rotation cursors and token accounts.
_BANDWIDTH_KWARGS = {
    "GLAP": {
        "config": __import__(
            "repro.core.glap", fromlist=["GlapConfig"]
        ).GlapConfig(
            aggregation_rounds=5,
            q_partitions=3,
            gossip_tokens=2000.0,
        )
    },
}


@pytest.mark.parametrize("policy_name", POLICY_NAMES)
def test_bandwidth_enabled_midpoint_resume_is_bit_identical(
    policy_name, tmp_path
):
    """Partitioning + tokens + telemetry across a midpoint cut.

    The acceptance bar for the bandwidth-aware gossip layer: with the
    partitioned exchange, token flow control and full telemetry all
    active, an interrupted-and-resumed run must equal the straight run
    bit for bit — result digest and the registry's complete state,
    ``gossip/*`` totals included.  (Non-GLAP policies have no bandwidth
    knobs; they pin the telemetry path under their golden kwargs.)
    """
    from repro.obs.telemetry import TelemetryRegistry

    kwargs = _BANDWIDTH_KWARGS.get(
        policy_name, POLICY_KWARGS.get(policy_name, {})
    )

    unbroken = TelemetryRegistry(gauge_every=5)
    result = run_policy(
        SCENARIO,
        make_policy(policy_name, **kwargs),
        SCENARIO.seed_of(0),
        telemetry=unbroken,
    )

    ckpt = tmp_path / "ck.json"
    with pytest.raises(_Interrupted):
        run_policy(
            SCENARIO,
            make_policy(policy_name, **kwargs),
            SCENARIO.seed_of(0),
            round_hook=_interrupt_after_midpoint,
            telemetry=TelemetryRegistry(gauge_every=5),
            checkpoint_every=MIDPOINT,
            checkpoint_path=ckpt,
        )
    second_half = TelemetryRegistry()
    resumed = resume_policy(
        ckpt,
        make_policy(policy_name, **kwargs),
        telemetry=second_half,
    )

    assert digest_run(resumed) == digest_run(result)
    assert second_half.state_dict() == unbroken.state_dict()
    if policy_name == "GLAP":
        totals = unbroken.totals()
        assert totals.get("gossip/bytes", 0.0) > 0.0
        assert totals.get("gossip/partition_lag", 0.0) > 0.0
