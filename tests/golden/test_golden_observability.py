"""Heartbeat + flight recorder on the 40-PM golden cell.

The live-observability layer obeys the same house rule as the tracer,
profiler and telemetry registry: it reads clocks, never the simulation's
RNG streams.  Pinned here, against the fixture of
``test_golden_columnar_cell.py`` (no new fixture — the whole point is
that the digests do not move):

* a run with *every* hook live at once — telemetry, JSONL tracer,
  profiler, invariant observer, heartbeat, flight recorder — lands on
  the pinned chaos digest bit-for-bit, for all four policies;
* two same-seed runs emit identical heartbeat streams modulo the
  wall-clock ``"timing"`` payloads;
* a run killed after its midpoint checkpoint and resumed *continues the
  same heartbeat file*: the combined tick stream equals the
  uninterrupted run's exactly (modulo timing), with abort + resumed
  markers in between, and the digest still matches;
* a failing run (invariant violation injected) funnels through the
  flight recorder: schema-valid post-mortem bundle, heartbeat abort
  marker, unhealthy ``glap watch`` report.
"""

import json

import pytest

from repro.experiments.runner import (
    POLICY_NAMES,
    make_policy,
    resume_policy,
)
from repro.experiments.sharding import ShardConfig
from repro.obs.heartbeat import HeartbeatWriter, load_heartbeat
from repro.obs.profiler import PhaseProfiler
from repro.obs.recorder import FlightRecorder, load_bundle
from repro.obs.telemetry import TelemetryRegistry
from repro.obs.tracer import JsonlTracer
from repro.obs.watch import watch_report_from_path
from repro.simulator.observer import InvariantViolation
from tests.golden.test_golden_columnar_cell import (
    FIXTURE_PATH,
    MIDPOINT,
    POLICY_KWARGS,
    SCENARIO,
    _instrumented_run,
    _Interrupted,
    _interrupt_after_midpoint,
)
from tests.golden.test_golden_runs import digest_run

N_ROUNDS = SCENARIO.warmup_rounds + SCENARIO.rounds


def _observed_run(policy_name, tmp_path, label="run", **kw):
    """An ``_instrumented_run`` with the heartbeat + recorder on top."""
    heartbeat = HeartbeatWriter(tmp_path / f"{label}.heartbeat.jsonl")
    recorder = FlightRecorder(tmp_path / f"{label}.postmortem.json")
    result, telemetry, tracer = _instrumented_run(
        policy_name, tmp_path, heartbeat=heartbeat, recorder=recorder, **kw
    )
    return result, heartbeat, recorder


def _deterministic(records):
    """Strip every wall-clock field; what remains must be bit-stable."""
    out = []
    for record in records:
        cleaned = {
            k: v for k, v in record.items() if k not in ("timing", "unix_time")
        }
        out.append(cleaned)
    return out


def _ticks(records):
    return [r for r in _deterministic(records) if r["kind"] == "tick"]


@pytest.mark.parametrize("policy_name", POLICY_NAMES)
def test_heartbeat_run_matches_golden(policy_name, tmp_path, update_golden):
    if update_golden:
        pytest.skip("fixture refresh handled by test_instrumented_cell")
    result, heartbeat, recorder = _observed_run(policy_name, tmp_path)

    fixture = json.loads(FIXTURE_PATH.read_text())
    assert digest_run(result) == fixture[f"{policy_name}/chaos40"]

    # The stream really covered the run: one tick per round (cadence 1),
    # bracketed by the header and the clean-completion marker.
    records = load_heartbeat(heartbeat.path)
    assert [r["kind"] for r in records[:1]] == ["header"]
    assert records[0]["policy"] == policy_name
    assert records[0]["rounds_total"] == N_ROUNDS
    ticks = _ticks(records)
    assert [t["round"] for t in ticks] == list(range(N_ROUNDS))
    assert {t["stage"] for t in ticks} == {"warmup", "eval"}
    assert records[-1]["kind"] == "complete"
    assert records[-1]["ticks"] == N_ROUNDS
    # Counter deltas rode along (the chaos cell gossips every round).
    assert any(t["counters"] for t in ticks)
    # Nothing dumped a post-mortem; the watch report reads healthy.
    assert recorder.dumped is None
    report = watch_report_from_path(heartbeat.path)
    assert report["healthy"] is True and report["markers"]["complete"] is True


@pytest.mark.parametrize("n_shards", [1, 4])
def test_sharded_heartbeat_run_matches_golden(n_shards, tmp_path):
    """Heartbeat + recorder on top of a K-shard ledger run: still the
    pinned digest, and no tick carries the retired imbalance timing."""
    result, heartbeat, _ = _observed_run(
        "GLAP",
        tmp_path,
        label=f"k{n_shards}",
        sharding=ShardConfig(n_shards=n_shards),
    )
    fixture = json.loads(FIXTURE_PATH.read_text())
    assert digest_run(result) == fixture["GLAP/chaos40"]
    ticks = [r for r in load_heartbeat(heartbeat.path) if r["kind"] == "tick"]
    assert len(ticks) == N_ROUNDS
    assert not any("shard/phase_max_over_mean" in t["timing"] for t in ticks)


def test_same_seed_streams_identical_modulo_timing(tmp_path):
    _, first, _ = _observed_run("GLAP", tmp_path, label="first")
    _, second, _ = _observed_run("GLAP", tmp_path, label="second")
    assert _deterministic(load_heartbeat(first.path)) == _deterministic(
        load_heartbeat(second.path)
    )


def test_midpoint_restore_continues_the_stream(tmp_path):
    """Kill after the midpoint checkpoint, resume into the *same*
    heartbeat file: combined ticks == uninterrupted ticks, exactly."""
    _, uninterrupted, _ = _observed_run("GLAP", tmp_path, label="whole")

    ckpt = tmp_path / "ck.json"
    hb_path = tmp_path / "halves.heartbeat.jsonl"
    pm_path = tmp_path / "halves.postmortem.json"
    with pytest.raises(_Interrupted):
        _instrumented_run(
            "GLAP",
            tmp_path,
            round_hook=_interrupt_after_midpoint,
            checkpoint_every=MIDPOINT,
            checkpoint_path=ckpt,
            heartbeat=HeartbeatWriter(hb_path),
            recorder=FlightRecorder(pm_path),
        )
    # The crash funnel ran: abort marker on the stream, bundle on disk.
    assert load_heartbeat(hb_path)[-1]["kind"] == "abort"
    assert load_bundle(pm_path)["reason"] == "exception"
    assert watch_report_from_path(hb_path)["healthy"] is False

    second_half = TelemetryRegistry()
    tracer = JsonlTracer(tmp_path / "second-half.jsonl")
    try:
        resumed = resume_policy(
            ckpt,
            make_policy("GLAP", **POLICY_KWARGS["GLAP"]),
            telemetry=second_half,
            tracer=tracer,
            profiler=PhaseProfiler(),
            heartbeat=HeartbeatWriter(hb_path),
        )
    finally:
        tracer.close()

    fixture = json.loads(FIXTURE_PATH.read_text())
    assert digest_run(resumed) == fixture["GLAP/chaos40"]

    records = load_heartbeat(hb_path)
    kinds = [r["kind"] for r in records]
    assert kinds.count("resumed") == 1 and kinds[-1] == "complete"
    assert records[kinds.index("resumed")]["resumed_from"] == MIDPOINT
    # The stitched stream is the uninterrupted one, tick for tick.
    assert _ticks(records) == _ticks(load_heartbeat(uninterrupted.path))
    report = watch_report_from_path(hb_path)
    assert report["markers"] == {"resumed": 1, "aborted": True, "complete": True}


def test_invariant_violation_funnels_into_bundle(tmp_path):
    def _blow_up(r, dc, sim):
        if r == 2:
            raise InvariantViolation("round 2: injected conservation breach")

    with pytest.raises(InvariantViolation):
        _observed_run("PABFD", tmp_path, label="doomed", round_hook=_blow_up)

    bundle = load_bundle(tmp_path / "doomed.postmortem.json")  # validates
    assert bundle["reason"] == "invariant_violation"
    assert "conservation breach" in bundle["error"]
    assert bundle["config"]["policy"] == "PABFD"
    assert bundle["config"]["seed"] == SCENARIO.seed_of(0)
    assert bundle["rng_streams"]  # the run's stream names were bound
    assert bundle["events"]  # the flight ring held the recent tail
    assert bundle["telemetry_tail"]["rounds"]  # last-K rounds telemetry

    records = load_heartbeat(tmp_path / "doomed.heartbeat.jsonl")
    assert records[-1]["kind"] == "abort"
    assert records[-1]["reason"] == "invariant_violation"
    report = watch_report_from_path(tmp_path / "doomed.heartbeat.jsonl")
    assert report["healthy"] is False
    assert "run_aborted" in [v["check"] for v in report["health"]["violations"]]


class _Doomed(RuntimeError):
    pass


def _die_on_call(monkeypatch, method, nth, exc):
    """Make PABFD's ``method`` raise ``exc`` on its ``nth`` call."""
    cls = type(make_policy("PABFD"))
    original, calls = getattr(cls, method), []

    def doomed(self, *args, **kw):
        calls.append(None)
        if len(calls) == nth:
            raise exc
        return original(self, *args, **kw)

    monkeypatch.setattr(cls, method, doomed)


@pytest.mark.parametrize(
    "point, method, nth, exc, reason",
    [
        ("setup", "attach", 1, _Doomed("injected"), "exception"),
        ("warmup", "step", 3, InvariantViolation("injected"), "invariant_violation"),
        ("eval", "step", SCENARIO.warmup_rounds + 3, _Doomed("injected"), "exception"),
        ("resumed", "step", 2, InvariantViolation("injected"), "invariant_violation"),
    ],
)
def test_every_point_of_the_run_path_funnels_into_a_bundle(
    point, method, nth, exc, reason, tmp_path, monkeypatch
):
    """Set-up, warm-up round, evaluation round, resumed evaluation round:
    wherever the one run path dies, the bundle carries the run's
    provenance and the heartbeat is marked iff it had been opened."""
    sharding = ShardConfig(n_shards=2)
    hb_path, pm_path = tmp_path / "hb.jsonl", tmp_path / "pm.json"
    heartbeat, recorder = HeartbeatWriter(hb_path), FlightRecorder(pm_path)
    if point == "resumed":
        ckpt = tmp_path / "ck.json"
        with pytest.raises(_Interrupted):
            _instrumented_run(
                "PABFD",
                tmp_path,
                round_hook=_interrupt_after_midpoint,
                checkpoint_every=MIDPOINT,
                checkpoint_path=ckpt,
                sharding=sharding,
            )
        _die_on_call(monkeypatch, method, nth, exc)
        with pytest.raises(type(exc)):
            resume_policy(
                ckpt,
                make_policy("PABFD"),
                telemetry=TelemetryRegistry(),
                heartbeat=heartbeat,
                recorder=recorder,
            )
    else:
        _die_on_call(monkeypatch, method, nth, exc)
        with pytest.raises(type(exc)):
            _instrumented_run(
                "PABFD",
                tmp_path,
                sharding=sharding,
                heartbeat=heartbeat,
                recorder=recorder,
            )

    bundle = load_bundle(pm_path)  # validates the schema
    assert bundle["reason"] == reason and "injected" in bundle["error"]
    config = bundle["config"]
    assert config["policy"] == "PABFD"
    assert config["seed"] == SCENARIO.seed_of(0)
    assert config["n_pms"] == SCENARIO.n_pms
    assert config["n_shards"] == 2  # a resume reads it off the checkpoint
    if point == "resumed":
        assert config["resumed_from_checkpoint"] == str(ckpt)
        assert bundle["checkpoint"]["eval_rounds_done"] == MIDPOINT
    else:
        assert "resumed_from_checkpoint" not in config
    assert bundle["heartbeat_path"] == str(hb_path)

    assert heartbeat.started == (point != "setup")
    if point == "setup":
        assert not hb_path.exists()  # no stream, so no abort marker either
    else:
        assert bundle["rng_streams"] and bundle["telemetry_tail"]["rounds"]
        last = load_heartbeat(hb_path)[-1]
        assert (last["kind"], last["reason"]) == ("abort", reason)


def test_refused_setup_raises_the_same_error_and_dumps(tmp_path):
    """A shard count the cell cannot hold is refused inside the one
    set-up: the same ``ValueError`` as ever, now with a bundle saying
    which run it was."""
    heartbeat = HeartbeatWriter(tmp_path / "hb.jsonl")
    with pytest.raises(ValueError, match="cannot exceed n_pms"):
        _instrumented_run(
            "PABFD",
            tmp_path,
            sharding=ShardConfig(n_shards=SCENARIO.n_pms + 1),
            heartbeat=heartbeat,
            recorder=FlightRecorder(tmp_path / "pm.json"),
        )
    bundle = load_bundle(tmp_path / "pm.json")
    assert bundle["reason"] == "exception"
    assert bundle["config"]["n_shards"] == SCENARIO.n_pms + 1
    assert not heartbeat.started
