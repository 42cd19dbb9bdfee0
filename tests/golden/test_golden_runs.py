"""Golden-run regression suite.

Every policy is run on one pinned (scenario, seed) cell — clean and
under a canonical fault plan — and the result is digested bit-exactly:
scalar metrics as ``float.hex()`` strings, every time series as the
SHA-256 of its raw buffer.  The digests are compared against the
checked-in fixture ``tests/golden/golden_runs.json``, so *any* change
to simulation arithmetic, RNG stream consumption, or metric plumbing
shows up as a failure here even when it is too small to trip a
behavioural assertion.

After an intentional change to the numerics, regenerate with::

    PYTHONPATH=src python -m pytest tests/golden --update-golden

and review the fixture diff like any other code change.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.core.glap import GlapConfig
from repro.experiments.runner import POLICY_NAMES, make_policy, run_policy
from repro.experiments.scenarios import Scenario
from repro.faults import FaultPlan
from repro.traces.google import GoogleTraceParams

GOLDEN_PATH = Path(__file__).parent / "golden_runs.json"

SCENARIO = Scenario(
    n_pms=12,
    ratio=2,
    rounds=15,
    warmup_rounds=15,
    repetitions=1,
    trace_params=GoogleTraceParams(rounds_per_day=15),
)
POLICY_KWARGS = {"GLAP": {"config": GlapConfig(aggregation_rounds=5)}}
#: The canonical chaos cell: enough of every fault kind to exercise the
#: loss, churn and restart paths without drowning the run.
CHAOS_PLAN = FaultPlan.message_loss(0.3).merged(
    FaultPlan.churn(0.01, downtime_rounds=3)
)

#: The golden cell per variant: "chaos" runs under CHAOS_PLAN with the
#: per-round invariant checks on.
VARIANTS = {"clean": SCENARIO, "chaos": SCENARIO.with_faults(CHAOS_PLAN)}

CASES = [(name, "clean") for name in POLICY_NAMES] + [
    (name, "chaos") for name in POLICY_NAMES
]


def _hex(value) -> str:
    return float(value).hex()


def digest_run(result) -> dict:
    """A JSON-able, bit-exact fingerprint of one RunResult."""
    out = {
        "policy": result.policy,
        "seed": result.seed,
        "slavo": _hex(result.slavo),
        "slalm": _hex(result.slalm),
        "slav": _hex(result.slav),
        "total_migrations": int(result.total_migrations),
        "migration_energy_j": _hex(result.migration_energy_j),
        "dc_energy_j": _hex(result.dc_energy_j),
        "final_active": int(result.final_active),
        "final_overloaded": int(result.final_overloaded),
        "bfd_baseline_pms": int(result.bfd_baseline_pms),
        "extras": {k: _hex(v) for k, v in sorted(result.extras.items())},
    }
    for name in sorted(result.series):
        arr = np.ascontiguousarray(result.series[name])
        sha = hashlib.sha256(arr.tobytes()).hexdigest()
        out[f"series/{name}"] = f"{arr.dtype}{list(arr.shape)}:{sha}"
    return out


def compute_digest(policy_name: str, variant: str) -> dict:
    kwargs = POLICY_KWARGS.get(policy_name, {})
    result = run_policy(
        VARIANTS[variant], make_policy(policy_name, **kwargs), SCENARIO.seed_of(0)
    )
    return digest_run(result)


@pytest.mark.parametrize("policy_name", POLICY_NAMES)
def test_traced_run_matches_clean_golden(policy_name, tmp_path, update_golden):
    """An *enabled* tracer + profiler must not move a single bit.

    Tracing reads simulation state and the profiler reads the clock;
    neither touches an RNG stream, so the digest of a fully-observed run
    must equal the checked-in "clean" golden entry exactly.
    """
    if update_golden:
        pytest.skip("fixture refresh handled by test_golden_run")
    from repro.obs.profiler import PhaseProfiler
    from repro.obs.tracer import JsonlTracer, load_trace

    kwargs = POLICY_KWARGS.get(policy_name, {})
    trace_path = tmp_path / "trace.jsonl"
    tracer = JsonlTracer(trace_path)
    result = run_policy(
        SCENARIO,
        make_policy(policy_name, **kwargs),
        SCENARIO.seed_of(0),
        tracer=tracer,
        profiler=PhaseProfiler(),
    )
    tracer.close()

    golden = json.loads(GOLDEN_PATH.read_text())
    assert digest_run(result) == golden[f"{policy_name}/clean"], (
        f"tracing perturbed the {policy_name} run — tracer/profiler code "
        "must never consume randomness or mutate simulation state"
    )
    # The trace itself must round-trip as valid, typed events.
    events = load_trace(trace_path)
    assert len(events) == tracer.events_emitted


@pytest.mark.parametrize("policy_name", POLICY_NAMES)
def test_telemetry_run_matches_clean_golden(policy_name, tmp_path, update_golden):
    """An *enabled* telemetry registry must not move a single bit either.

    Telemetry snapshots counters and samples the convergence gauge with
    a private generator, so — like tracing — a fully instrumented run
    (telemetry + tracer + profiler together) must land exactly on the
    checked-in "clean" golden digest.
    """
    if update_golden:
        pytest.skip("fixture refresh handled by test_golden_run")
    from repro.obs.profiler import PhaseProfiler
    from repro.obs.telemetry import TelemetryRegistry
    from repro.obs.tracer import JsonlTracer

    kwargs = POLICY_KWARGS.get(policy_name, {})
    telemetry = TelemetryRegistry(gauge_every=5)
    tracer = JsonlTracer(tmp_path / "trace.jsonl")
    result = run_policy(
        SCENARIO,
        make_policy(policy_name, **kwargs),
        SCENARIO.seed_of(0),
        tracer=tracer,
        profiler=PhaseProfiler(),
        telemetry=telemetry,
    )
    tracer.close()

    golden = json.loads(GOLDEN_PATH.read_text())
    assert digest_run(result) == golden[f"{policy_name}/clean"], (
        f"telemetry perturbed the {policy_name} run — telemetry code must "
        "never consume shared randomness or mutate simulation state"
    )
    # The registry really observed the run: every simulation round
    # closed, and message counters that balance.
    n_rounds = SCENARIO.warmup_rounds + SCENARIO.rounds
    assert telemetry.rounds_observed == n_rounds
    totals = telemetry.totals()
    assert totals["net/sent"] == totals["net/delivered"] + totals["net/dropped"]
    if policy_name != "PABFD":  # PABFD is centralised: no gossip traffic
        assert totals["net/sent"] > 0
    if policy_name == "GLAP":
        samples = telemetry.gauges["glap/q_cosine"]
        assert samples["rounds"] == list(range(0, n_rounds, 5))
        assert all(0.0 <= v <= 1.0 for v in samples["values"])
        assert totals["glap/migrations_attempted"] == (
            totals["glap/migrations_accepted"]
            + totals["glap/reject_q_in"]
            + totals["glap/reject_capacity"]
        )


@pytest.mark.parametrize("policy_name,variant", CASES)
def test_golden_run(policy_name, variant, update_golden):
    key = f"{policy_name}/{variant}"
    digest = compute_digest(policy_name, variant)

    if update_golden:
        golden = json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists() else {}
        golden[key] = digest
        GOLDEN_PATH.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
        pytest.skip(f"golden fixture updated for {key}")

    assert GOLDEN_PATH.exists(), (
        "no golden fixture checked in; run pytest tests/golden --update-golden"
    )
    golden = json.loads(GOLDEN_PATH.read_text())
    assert key in golden, f"no golden entry for {key}; rerun with --update-golden"
    expected = golden[key]
    if digest != expected:
        diff = {
            field: (expected.get(field), digest.get(field))
            for field in sorted(set(expected) | set(digest))
            if expected.get(field) != digest.get(field)
        }
        raise AssertionError(
            f"golden digest drift for {key} (expected, got): {diff}\n"
            "If the numerics changed intentionally, regenerate with "
            "--update-golden and review the fixture diff."
        )
