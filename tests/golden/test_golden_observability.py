"""The heartbeat stream and its post-mortem on the 40-PM golden cell.

The live-observability layer obeys the same house rule as the tracer,
profiler and telemetry registry: it reads clocks, never the simulation's
RNG streams.  Pinned here, against the fixture of
``test_golden_columnar_cell.py`` (no new fixture — the whole point is
that the digests do not move):

* a run with *every* hook live at once — telemetry, JSONL tracer,
  profiler, invariant observer, heartbeat with its event ring — lands
  on the pinned chaos digest bit-for-bit, for all four policies;
* two same-seed runs emit identical heartbeat streams modulo the
  wall-clock ``"timing"`` payloads;
* a run killed after its midpoint checkpoint and resumed *continues the
  same heartbeat file*: the combined tick stream equals the
  uninterrupted run's exactly (modulo timing), with abort + resumed
  markers in between, and the digest still matches;
* a run killed any number of rounds past a checkpoint, at any heartbeat
  cadence, stitches too: its stream de-duplicated by round (the stale
  ticks superseded) is the uninterrupted run's, and ``glap watch``'s
  counter totals are the resumed registry's;
* a failing run (invariant violation injected) ends its stream with
  an ``abort`` record holding the post-mortem bundle (event ring,
  telemetry tail, checkpoint pointer) and reads unhealthy in ``glap
  watch`` —
  wherever the run path dies, the set-up and the restore of a resume
  included;
* SIGTERM mid-run, fresh or resumed, exits 143 with a ``sigterm``
  ``abort`` record and leaves the caller's signal handlers in place.
"""

import json
import os
import signal

import pytest

from repro.core.glap import GlapConfig
from repro.experiments.runner import (
    POLICY_NAMES,
    make_policy,
    resume_policy,
)
from repro.obs.heartbeat import HeartbeatWriter, load_heartbeat
from repro.obs.profiler import PhaseProfiler
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
    """An ``_instrumented_run`` with the heartbeat on top."""
    heartbeat = HeartbeatWriter(tmp_path / f"{label}.heartbeat.jsonl")
    result, telemetry, tracer = _instrumented_run(
        policy_name, tmp_path, heartbeat=heartbeat, **kw
    )
    return result, heartbeat


def _last_abort(path):
    """The stream's final record, which must be an ``abort`` record."""
    last = load_heartbeat(path)[-1]
    assert last["kind"] == "abort", last["kind"]
    return last


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
    result, heartbeat = _observed_run(policy_name, tmp_path)

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
    # No post-mortem on a clean run; the watch report reads healthy.
    assert "abort" not in {r["kind"] for r in records}
    report = watch_report_from_path(heartbeat.path)
    assert report["healthy"] is True and report["markers"]["complete"] is True


def test_same_seed_streams_identical_modulo_timing(tmp_path):
    _, first = _observed_run("GLAP", tmp_path, label="first")
    _, second = _observed_run("GLAP", tmp_path, label="second")
    assert _deterministic(load_heartbeat(first.path)) == _deterministic(
        load_heartbeat(second.path)
    )


def test_midpoint_restore_continues_the_stream(tmp_path):
    """Kill after the midpoint checkpoint, resume into the *same*
    heartbeat file: combined ticks == uninterrupted ticks, exactly."""
    _, uninterrupted = _observed_run("GLAP", tmp_path, label="whole")

    ckpt = tmp_path / "ck.json"
    hb_path = tmp_path / "halves.heartbeat.jsonl"
    with pytest.raises(_Interrupted):
        _instrumented_run(
            "GLAP",
            tmp_path,
            round_hook=_interrupt_after_midpoint,
            checkpoint_every=MIDPOINT,
            checkpoint_path=ckpt,
            heartbeat=HeartbeatWriter(hb_path),
        )
    # The crash funnel ran: the stream ends in its post-mortem.
    abort = _last_abort(hb_path)
    assert abort["reason"] == "exception"
    assert abort["checkpoint"]["eval_rounds_done"] == MIDPOINT
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


#: Checkpoint cadence of the kill-anywhere runs: saves after evaluation
#: rounds 4, 8 and 12 of the cell's 12.
EVERY_CKPT = 4


@pytest.mark.parametrize("cadence", [1, 3])
@pytest.mark.parametrize("past", [1, 2, 3])
def test_resume_from_any_round_stitches_the_stream(past, cadence, tmp_path):
    """Die ``past`` evaluation rounds after the first checkpoint — the
    rounds in between already ticked — and resume into the same
    heartbeat file: de-duplicated by round, the stitched ticks are the
    uninterrupted run's, and the watch report's totals are the resumed
    registry's, float counters included.  The ``complete`` marker counts
    the stitched ticks, as the watch report does."""
    policy_kwargs = POLICY_KWARGS["GLAP"]
    whole = HeartbeatWriter(tmp_path / "whole.jsonl", every=cadence)
    _instrumented_run("GLAP", tmp_path, heartbeat=whole)

    def _die(r, dc, sim):
        if r == EVERY_CKPT + past - 1:
            raise _Interrupted

    ckpt, hb_path = tmp_path / "ck.json", tmp_path / "hb.jsonl"
    with pytest.raises(_Interrupted):
        _instrumented_run(
            "GLAP",
            tmp_path,
            round_hook=_die,
            checkpoint_every=EVERY_CKPT,
            checkpoint_path=ckpt,
            heartbeat=HeartbeatWriter(hb_path, every=cadence),
        )
    telemetry, totals_at = TelemetryRegistry(), {}

    def _totals(r, dc, sim):
        totals_at[sim.round_index - 1] = telemetry.totals()

    resume_policy(
        ckpt,
        make_policy("GLAP", **policy_kwargs),
        round_hook=_totals,
        telemetry=telemetry,
        heartbeat=HeartbeatWriter(hb_path, every=cadence),
    )

    ticks = _ticks(load_heartbeat(hb_path))
    stitched = list({t["round"]: t for t in sorted(ticks, key=lambda t: t["round"])}.values())
    # The dead process ticked the rounds between its checkpoint and
    # the round it died in; the resumed one ticked them again.
    first = SCENARIO.warmup_rounds + EVERY_CKPT
    stale = [r for r in range(first, first + past - 1) if r % cadence == 0]
    assert len(ticks) - len(stitched) == len(stale)
    assert stitched == _ticks(load_heartbeat(whole.path))

    report = watch_report_from_path(hb_path)
    complete = load_heartbeat(hb_path)[-1]
    assert complete["kind"] == "complete"
    assert complete["ticks"] == len(stitched) == report["ticks"]
    last = stitched[-1]["round"]
    assert report["health"]["telemetry_totals"] == totals_at[last]
    if cadence == 1:
        assert last == N_ROUNDS - 1
        assert report["health"]["telemetry_totals"] == telemetry.totals()
    assert report["markers"] == {"resumed": 1, "aborted": True, "complete": True}


def test_invariant_violation_funnels_into_bundle(tmp_path):
    def _blow_up(r, dc, sim):
        if r == 2:
            raise InvariantViolation("round 2: injected conservation breach")

    with pytest.raises(InvariantViolation):
        _observed_run("PABFD", tmp_path, label="doomed", round_hook=_blow_up)

    hb_path = tmp_path / "doomed.heartbeat.jsonl"
    header = load_heartbeat(hb_path)[0]
    assert (header["policy"], header["seed"]) == ("PABFD", SCENARIO.seed_of(0))
    abort = _last_abort(hb_path)
    assert abort["reason"] == "invariant_violation"
    assert "conservation breach" in abort["error"]
    # The last round ticked: evaluation round 2 died before its tick.
    assert abort["round"] == SCENARIO.warmup_rounds + 1
    assert abort["events"]  # the ring held the recent tail
    # The telemetry is the stream's: its last tick, the round named.
    last_tick = _ticks(load_heartbeat(hb_path))[-1]
    assert last_tick["round"] == abort["round"] and last_tick["counters"]
    report = watch_report_from_path(hb_path)
    assert report["healthy"] is False
    assert "run_aborted" in [v["check"] for v in report["health"]["violations"]]
    assert report["abort"]["reason"] == "invariant_violation"
    assert report["abort"]["events"] == len(abort["events"])


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
        ("restore", "attach", 1, _Doomed("injected"), "exception"),
        ("resumed", "step", 2, InvariantViolation("injected"), "invariant_violation"),
    ],
)
def test_every_point_of_the_run_path_funnels_into_a_bundle(
    point, method, nth, exc, reason, tmp_path, monkeypatch
):
    """Set-up, warm-up round, evaluation round, the restore of a resume,
    resumed evaluation round: wherever the one run path dies, the stream
    was open before it and ends in an ``abort`` record; one that died in
    a round carries the event ring and names the stream's last tick,
    which holds the telemetry, and a resume points at its checkpoint."""
    hb_path = tmp_path / "hb.jsonl"
    heartbeat = HeartbeatWriter(hb_path)
    resumes = point in ("restore", "resumed")
    if resumes:
        ckpt = tmp_path / "ck.json"
        with pytest.raises(_Interrupted):
            _instrumented_run(
                "PABFD",
                tmp_path,
                round_hook=_interrupt_after_midpoint,
                checkpoint_every=MIDPOINT,
                checkpoint_path=ckpt,
            )
        _die_on_call(monkeypatch, method, nth, exc)
        with pytest.raises(type(exc)):
            resume_policy(
                ckpt,
                make_policy("PABFD"),
                telemetry=TelemetryRegistry(),
                heartbeat=heartbeat,
            )
    else:
        _die_on_call(monkeypatch, method, nth, exc)
        with pytest.raises(type(exc)):
            _instrumented_run("PABFD", tmp_path, heartbeat=heartbeat)

    records = load_heartbeat(hb_path)
    # The interrupted run had no heartbeat, so a resume opens a fresh
    # stream too: its header is read off the checkpoint.
    header = records[0]
    assert header["kind"] == "header" and header["policy"] == "PABFD"
    assert header["seed"] == SCENARIO.seed_of(0)
    assert header["n_pms"] == SCENARIO.n_pms
    assert [r["kind"] for r in records].count("resumed") == 0  # a fresh file
    abort = _last_abort(hb_path)
    assert abort["reason"] == reason and "injected" in abort["error"]
    if resumes:
        assert abort["checkpoint"] == {"path": str(ckpt), "eval_rounds_done": MIDPOINT}
    else:
        assert abort["checkpoint"] == {}
    if point in ("setup", "restore"):
        assert abort["round"] is None  # died before its first round
    else:
        last_tick = _ticks(records)[-1]
        assert abort["events"] and last_tick["counters"]
        assert abort["round"] == last_tick["round"]


def test_refused_setup_raises_the_same_error_and_dumps(tmp_path):
    """A GLAP whose aggregation phase leaves no room for learning in the
    cell's warm-up is refused inside the one set-up: the same
    ``ValueError`` as ever, now at the end of a stream whose header says
    which run it was."""
    heartbeat = HeartbeatWriter(tmp_path / "hb.jsonl")
    glap = make_policy("GLAP", config=GlapConfig(aggregation_rounds=SCENARIO.warmup_rounds))
    with pytest.raises(ValueError, match="must exceed aggregation_rounds"):
        _instrumented_run("GLAP", tmp_path, policy=glap, heartbeat=heartbeat)
    records = load_heartbeat(heartbeat.path)
    assert [r["kind"] for r in records] == ["header", "abort"]
    assert records[0]["policy"] == "GLAP"
    assert records[0]["warmup_rounds"] == SCENARIO.warmup_rounds
    assert records[1]["reason"] == "exception"
    assert "must exceed aggregation_rounds" in records[1]["error"]


#: The evaluation round whose hook sends SIGTERM: past the midpoint, so
#: a run resumed from the midpoint checkpoint reaches it too.
KILL_AT = MIDPOINT + 2


@pytest.mark.parametrize("path", ["fresh", "resumed"])
def test_sigterm_funnels_into_a_bundle_and_restores_handlers(path, tmp_path):
    """A run that receives SIGTERM exits 143 with a ``sigterm`` abort
    record, on the fresh and on the resumed path; the handlers the
    caller had are back in place afterwards."""

    def _sigterm(r, dc, sim):
        if r == KILL_AT:
            os.kill(os.getpid(), signal.SIGTERM)

    def _callers_handler(signum, frame):
        raise AssertionError("the run's own handler should have caught this")

    hb_path = tmp_path / "hb.jsonl"
    heartbeat = HeartbeatWriter(hb_path)
    if path == "resumed":
        ckpt = tmp_path / "ck.json"
        with pytest.raises(_Interrupted):
            _instrumented_run(
                "PABFD",
                tmp_path,
                round_hook=_interrupt_after_midpoint,
                checkpoint_every=MIDPOINT,
                checkpoint_path=ckpt,
            )
    signums = (signal.SIGTERM, signal.SIGINT)
    previous = {signum: signal.signal(signum, _callers_handler) for signum in signums}
    try:
        with pytest.raises(SystemExit) as exit_info:
            if path == "resumed":
                resume_policy(
                    ckpt,
                    make_policy("PABFD"),
                    round_hook=_sigterm,
                    heartbeat=heartbeat,
                )
            else:
                _instrumented_run(
                    "PABFD",
                    tmp_path,
                    round_hook=_sigterm,
                    heartbeat=heartbeat,
                )
        restored = [signal.getsignal(signum) for signum in signums]
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)

    assert exit_info.value.code == 128 + signal.SIGTERM == 143
    assert restored == [_callers_handler, _callers_handler]
    abort = _last_abort(hb_path)
    assert abort["reason"] == "sigterm" and abort["events"]
    assert abort["checkpoint"].get("eval_rounds_done") == (
        MIDPOINT if path == "resumed" else None
    )
