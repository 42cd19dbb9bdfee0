"""40-PM golden cell on the columnar core, fully instrumented.

A second pinned golden cell, larger than the 12-PM one, that exercises
the columnar store's whole-array hot path at a size where per-PM CSR
segments are non-trivial — under the canonical fault plan *and* with
every observability hook enabled at once (telemetry registry, JSONL
tracer, phase profiler, invariant observer).  For all four policies:

* the digest of the instrumented chaos run is pinned bit-exactly in
  ``golden_columnar_cell.json``, and so are the bytes of its JSONL
  trace (``/trace``: every event kind the policy emits, Alg. 3's
  ``eviction`` decisions and the observer's ``overload_*`` included);
* a run checkpointed at its midpoint and resumed (fresh registry,
  fresh tracer) must land on the *same* digest bit-for-bit, and the
  resumed trace's bytes are pinned too (``/trace-resumed``: the tail of
  the uninterrupted trace, from the re-armed overload baseline on).

Regenerate after an intentional numerics change with::

    PYTHONPATH=src python -m pytest tests/golden --update-golden
"""

import hashlib
import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.core.glap import GlapConfig
from repro.experiments.runner import (
    POLICY_NAMES,
    make_policy,
    resume_policy,
    run_policy,
)
from repro.experiments.scenarios import Scenario, ShardConfig
from repro.faults import FaultPlan
from repro.obs.profiler import PhaseProfiler
from repro.obs.telemetry import TelemetryRegistry
from repro.obs.tracer import JsonlTracer, load_trace
from repro.traces.google import GoogleTraceParams
from tests.golden.test_golden_runs import digest_run

FIXTURE_PATH = Path(__file__).parent / "golden_columnar_cell.json"

SCENARIO = Scenario(
    n_pms=40,
    ratio=3,
    rounds=12,
    warmup_rounds=12,
    repetitions=1,
    trace_params=GoogleTraceParams(rounds_per_day=12),
)
POLICY_KWARGS = {"GLAP": {"config": GlapConfig(aggregation_rounds=4)}}
#: Same fault kinds as the canonical chaos plan, tuned down so a 40-PM
#: cell sees steady loss and a few churn events per run.
FAULT_PLAN = FaultPlan.message_loss(0.2).merged(
    FaultPlan.churn(0.02, downtime_rounds=2)
)
#: The instrumented cell: FAULT_PLAN with the per-round invariant checks.
CHAOS_SCENARIO = SCENARIO.with_faults(FAULT_PLAN)
MIDPOINT = 7  # of SCENARIO.rounds == 12


def sharded(n_shards: int) -> Scenario:
    """The instrumented cell with a ``n_shards``-shard federation ledger."""
    return replace(CHAOS_SCENARIO, sharding=ShardConfig(n_shards=n_shards))


class _Interrupted(Exception):
    pass


def _interrupt_after_midpoint(r, dc, sim):
    if r == MIDPOINT:
        raise _Interrupted


def _instrumented_run(
    policy_name: str, tmp_path: Path, policy=None, scenario=CHAOS_SCENARIO, **kw
):
    """One ``scenario`` run with telemetry + tracer + profiler + invariants
    all live (``policy``: a fresh one of ``policy_name`` unless given).
    Returns (result, telemetry, tracer)."""
    telemetry = TelemetryRegistry(gauge_every=4)
    tracer = JsonlTracer(tmp_path / "trace.jsonl")
    if policy is None:
        policy = make_policy(policy_name, **POLICY_KWARGS.get(policy_name, {}))
    try:
        result = run_policy(
            scenario,
            policy,
            SCENARIO.seed_of(0),
            telemetry=telemetry,
            tracer=tracer,
            profiler=PhaseProfiler(),
            **kw,
        )
    finally:
        tracer.close()
    return result, telemetry, tracer


def _file_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _update_fixture(entries) -> None:
    fixture = json.loads(FIXTURE_PATH.read_text()) if FIXTURE_PATH.exists() else {}
    fixture.update(entries)
    FIXTURE_PATH.write_text(json.dumps(fixture, indent=2, sort_keys=True) + "\n")


@pytest.mark.parametrize("policy_name", POLICY_NAMES)
def test_instrumented_cell_matches_golden(policy_name, tmp_path, update_golden):
    key = f"{policy_name}/chaos40"
    result, telemetry, tracer = _instrumented_run(policy_name, tmp_path)
    digest = digest_run(result)
    trace_digest = _file_digest(tmp_path / "trace.jsonl")

    if update_golden:
        _update_fixture({key: digest, f"{key}/trace": trace_digest})
        pytest.skip(f"golden fixture updated for {key}")

    assert FIXTURE_PATH.exists(), (
        "no 40-PM fixture checked in; run pytest tests/golden --update-golden"
    )
    fixture = json.loads(FIXTURE_PATH.read_text())
    assert key in fixture, f"no fixture entry for {key}; rerun with --update-golden"
    assert digest == fixture[key]
    assert trace_digest == fixture[f"{key}/trace"]

    # The instrumentation really observed the run, on top of not
    # perturbing it: per-round telemetry rows, the data-centre gauges
    # registered by the runner, and a round-trippable trace.
    n_rounds = SCENARIO.warmup_rounds + SCENARIO.rounds
    assert telemetry.rounds == list(range(n_rounds))
    for gauge in ("dc/active_pms", "dc/overloaded_pms"):
        samples = telemetry.gauges[gauge]
        assert samples["rounds"] == list(range(0, n_rounds, 4))
        assert all(0.0 <= v <= SCENARIO.n_pms for v in samples["values"])
    events = load_trace(tmp_path / "trace.jsonl")
    assert len(events) == tracer.events_emitted > 0


@pytest.mark.parametrize("policy_name", POLICY_NAMES)
def test_midpoint_restore_is_bit_identical(policy_name, tmp_path, update_golden):
    """Kill the instrumented chaos run one round after its midpoint
    checkpoint, resume with a *fresh* registry and tracer, and land on
    the pinned digest (and the pinned resumed trace) exactly."""
    key = f"{policy_name}/chaos40"
    ckpt = tmp_path / "ck.json"
    with pytest.raises(_Interrupted):
        _instrumented_run(
            policy_name,
            tmp_path,
            round_hook=_interrupt_after_midpoint,
            checkpoint_every=MIDPOINT,
            checkpoint_path=ckpt,
        )
    assert json.loads(ckpt.read_text())["progress"]["eval_rounds_done"] == MIDPOINT

    second_half = TelemetryRegistry()  # gauge_every rides in the checkpoint
    tracer = JsonlTracer(tmp_path / "second-half.jsonl")
    try:
        resumed = resume_policy(
            ckpt,
            make_policy(policy_name, **POLICY_KWARGS.get(policy_name, {})),
            telemetry=second_half,
            tracer=tracer,
            profiler=PhaseProfiler(),
        )
    finally:
        tracer.close()

    trace_digest = _file_digest(tmp_path / "second-half.jsonl")
    if update_golden:
        _update_fixture({f"{key}/trace-resumed": trace_digest})
        pytest.skip(f"golden fixture updated for {key}/trace-resumed")
    fixture = json.loads(FIXTURE_PATH.read_text())
    assert digest_run(resumed) == fixture[key]
    assert trace_digest == fixture[f"{key}/trace-resumed"]


#: Alg. 3's counters and its ``eviction`` lines (count, sha256 of the
#: bytes) on the GLAP chaos cell, as the view-based step produced them
#: before the step moved onto the store's planes.
GLAP_CONSOLIDATION_COUNTERS = {
    "exchanges": 99,
    "rejections_by_q_in": 46,
    "rejections_by_capacity": 21,
    "migrations_done": 111,
    "switch_offs": 28,
}
GLAP_EVICTIONS = (178, "dfb32d97a4376de606d3bbb7fd05c97afa00d9772e007ed90c1f2aac11dceaa8")


def test_glap_consolidation_counters_and_evictions_are_pinned(tmp_path):
    policy = make_policy("GLAP", **POLICY_KWARGS["GLAP"])
    _instrumented_run("GLAP", tmp_path, policy=policy)
    cons = policy.consolidation
    assert {
        name: getattr(cons, name) for name in GLAP_CONSOLIDATION_COUNTERS
    } == GLAP_CONSOLIDATION_COUNTERS
    evictions = [
        line
        for line in (tmp_path / "trace.jsonl").read_bytes().splitlines(keepends=True)
        if line.startswith(b'{"ev":"eviction"')
    ]
    assert (len(evictions), hashlib.sha256(b"".join(evictions)).hexdigest()) == GLAP_EVICTIONS
    # All three outcomes of a MIGRATE step occur in the pinned stream.
    outcomes = {json.loads(line)["outcome"] for line in evictions}
    assert outcomes == {"migrated", "q_in_reject", "capacity_reject"}
