"""Tests for repro.obs.watch and the ``glap watch`` subcommand.

The report layer is tested against synthetic heartbeat streams; the CLI
layer against real files through ``main()``, pinning the exit-code
contract: 0 healthy, 1 unhealthy (violations / abort marker / missed
convergence floor), 2 usage error.
"""

import json

import pytest

from repro.cli import main
from repro.obs.heartbeat import HEARTBEAT_VERSION as V
from repro.obs.watch import (
    format_watch_report,
    resolve_heartbeat_path,
    watch_report,
    watch_report_from_path,
)

HEADER = {
    "v": V,
    "kind": "header",
    "schema": "glap-heartbeat",
    "policy": "GLAP",
    "n_pms": 12,
    "n_vms": 24,
    "seed": 7,
    "rounds_total": 10,
    "warmup_rounds": 5,
    "eval_rounds": 5,
    "every": 1,
    "unix_time": 0.0,
}


def _tick(round_index, wall_s=None, **extra):
    record = {
        "v": V,
        "kind": "tick",
        "round": round_index,
        "stage": "eval" if round_index >= 5 else "warmup",
        "counters": extra.pop("counters", {}),
        "gauges": extra.pop("gauges", {}),
    }
    record.update(extra)
    if wall_s is not None:
        record["timing"] = {"wall_s": wall_s, "unix_time": wall_s}
    return record


def _write(path, records):
    path.write_text(
        "".join(json.dumps(r, separators=(",", ":")) + "\n" for r in records)
    )


class TestWatchReport:
    def test_requires_header(self):
        with pytest.raises(ValueError, match="no header"):
            watch_report([_tick(0)])

    def test_healthy_stream(self):
        report = watch_report(
            [
                HEADER,
                _tick(0, counters={"net/sent": 4.0, "net/delivered": 4.0}),
                _tick(1, counters={"net/sent": 7.0, "net/delivered": 7.0}),
            ]
        )
        assert report["healthy"] is True
        assert report["progress"]["round"] == 1
        assert report["progress"]["fraction"] == pytest.approx(0.2)
        assert report["ticks"] == 2
        assert report["markers"] == {
            "resumed": 0,
            "aborted": False,
            "complete": False,
        }

    def test_counter_totals_are_the_last_ticks(self):
        """A tick carries the registry's totals: the report's totals are
        the last tick's counters, not a sum over the ticks."""
        report = watch_report(
            [
                HEADER,
                _tick(0, counters={"net/sent": 4.0, "net/delivered": 4.0}),
                _tick(1, counters={"net/sent": 7.0, "net/delivered": 3.0, "glap/td": 0.1 + 0.2}),
            ]
        )
        assert report["health"]["telemetry_totals"] == {
            "net/sent": 7.0, "net/delivered": 3.0, "glap/td": 0.1 + 0.2,
        }
        # sent=7 vs delivered+dropped=3 -> conservation violated.
        assert report["healthy"] is False
        checks = [v["check"] for v in report["health"]["violations"]]
        assert "message_conservation" in checks

    def test_abort_marker_is_a_violation(self):
        report = watch_report(
            [
                HEADER,
                _tick(0),
                {"v": V, "kind": "abort", "reason": "sigterm", "unix_time": 1.0},
            ]
        )
        assert report["healthy"] is False
        assert report["markers"]["aborted"] is True
        checks = [v["check"] for v in report["health"]["violations"]]
        assert "run_aborted" in checks

    def test_abort_record_post_mortem_in_report(self):
        abort = {
            "v": V, "kind": "abort", "reason": "sigterm", "error": "Boom()",
            "round": 1, "checkpoint": {"path": "ck.json", "eval_rounds_done": 50},
            "events": [{"ev": "pm_sleep", "round": 1, "node": n} for n in range(12)],
        }
        report = watch_report([HEADER, _tick(0), _tick(1), abort])
        assert report["abort"] == {
            "reason": "sigterm", "error": "Boom()", "round": 1,
            "checkpoint": {"path": "ck.json", "eval_rounds_done": 50},
            "events": 12, "last_events": ["pm_sleep"] * 8,
        }
        text = format_watch_report(report)
        assert "aborted: sigterm after round 1: Boom()" in text
        assert "ck.json" in text and "12 events held, last: pm_sleep" in text

    def test_abort_record_without_post_mortem_reads(self):
        """An ``abort`` record that carries only a reason (the shape
        before the post-mortem joined the stream) still reads."""
        report = watch_report([HEADER, {"v": V, "kind": "abort", "reason": "sigterm"}])
        assert report["abort"] == {
            "reason": "sigterm", "error": None, "round": None,
            "checkpoint": {}, "events": 0, "last_events": [],
        }
        assert report["healthy"] is False
        assert report["markers"]["aborted"] is True
        assert watch_report([HEADER])["abort"] is None

    def test_min_convergence_applies_to_latest_gauge(self):
        records = [
            HEADER,
            _tick(0, gauges={"glap/q_cosine": 0.4}),
            _tick(1, gauges={"glap/q_cosine": 0.6}),
        ]
        assert watch_report(records, min_convergence=0.5)["healthy"] is True
        assert watch_report(records, min_convergence=0.9)["healthy"] is False

    def test_ticks_deduplicated_by_round_latest_wins(self):
        """A run resumed from an earlier checkpoint re-executes rounds;
        the effective history keeps one tick per round."""
        report = watch_report(
            [
                HEADER,
                _tick(0, counters={"net/sent": 1.0, "net/delivered": 1.0}),
                _tick(1, counters={"net/sent": 6.0, "net/delivered": 6.0}),
                {"v": V, "kind": "resumed", "resumed_from": 0, "unix_time": 0.0},
                _tick(1, counters={"net/sent": 3.0, "net/delivered": 3.0}),
            ]
        )
        assert report["ticks"] == 2
        assert report["markers"]["resumed"] == 1
        assert report["health"]["telemetry_totals"]["net/sent"] == 3.0  # the re-run tick

    def test_eta_from_trailing_pace(self):
        records = [HEADER] + [
            _tick(r, wall_s=2.0 * r) for r in range(5)
        ]
        eta = watch_report(records)["eta"]
        assert eta["s_per_round"] == pytest.approx(2.0)
        # rounds_total=10 -> last index 9, at round 4 -> 5 remaining.
        assert eta["eta_s"] == pytest.approx(10.0)

    def test_eta_window_survives_resume_clock_reset(self):
        records = [HEADER]
        records += [_tick(r, wall_s=50.0 + r) for r in range(3)]  # pre-kill
        records += [_tick(r, wall_s=3.0 * (r - 3)) for r in range(3, 7)]  # resumed
        eta = watch_report(records)["eta"]
        assert eta["s_per_round"] == pytest.approx(3.0)

    def test_complete_marker(self):
        report = watch_report(
            [HEADER, _tick(0), {"v": V, "kind": "complete", "ticks": 1}]
        )
        assert report["markers"]["complete"] is True
        assert report["healthy"] is True


class TestFormatting:
    def test_render_mentions_the_essentials(self):
        records = [
            HEADER,
            _tick(0, wall_s=1.0, overloaded_pms=2, gauges={"glap/q_cosine": 0.9}),
            _tick(1, wall_s=2.0, overloaded_pms=3, gauges={"glap/q_cosine": 0.95}),
        ]
        text = format_watch_report(watch_report(records))
        assert "GLAP" in text and "12 PMs" in text
        assert "round 1/9" in text
        assert "overloaded PMs" in text
        assert "run health" in text

    def test_aborted_run_labelled(self):
        text = format_watch_report(
            watch_report(
                [HEADER, {"v": V, "kind": "abort", "reason": "sigint"}]
            )
        )
        assert "ABORTED" in text

    ABORT = {"v": V, "kind": "abort", "reason": "sigterm", "round": 2}
    RESUMED = {"v": V, "kind": "resumed", "resumed_from": 0}

    def test_aborted_stream_shows_pace_but_no_eta(self):
        ticks = [_tick(r, wall_s=2.0 * r) for r in range(3)]
        report = watch_report([HEADER, *ticks, self.ABORT])
        assert report["eta"] == {"s_per_round": pytest.approx(2.0), "eta_s": None}
        text = format_watch_report(report)
        assert "pace: 2 s/round" in text and "ETA" not in text

    def test_aborted_then_resumed_stream_is_live_and_keeps_its_eta(self):
        ticks = [_tick(r, wall_s=2.0 * r) for r in range(3)]
        again = [_tick(r, wall_s=2.0 * (r - 3)) for r in range(3, 5)]
        for tail in ([], again):
            report = watch_report([HEADER, *ticks, self.ABORT, self.RESUMED, *tail])
            assert report["eta"]["eta_s"] is not None
            assert "ETA" in format_watch_report(report)

    def test_status_line_follows_the_last_lifecycle_record(self):
        """``ended`` is the kind of the lifecycle record that ends the
        run, or None while it is live; the status line reads it, so an
        aborted run that was resumed reads ``live``, not ``ABORTED``,
        while ``markers`` still records the abort."""
        ticks = [_tick(r, wall_s=2.0 * r) for r in range(3)]
        again = [_tick(r, wall_s=2.0 * (r - 3)) for r in range(3, 5)]
        complete = {"v": V, "kind": "complete", "ticks": 5}
        cases = [
            ([HEADER, *ticks], None, "live"),
            ([HEADER, *ticks, self.ABORT], "abort", "ABORTED"),
            ([HEADER, *ticks, self.ABORT, self.RESUMED, *again], None, "live"),
            ([HEADER, *ticks, self.ABORT, self.RESUMED, *again, self.ABORT], "abort", "ABORTED"),
            ([HEADER, *ticks, self.ABORT, self.RESUMED, *again, complete], "complete", "complete"),
        ]
        for records, ended, status in cases:
            report = watch_report(records)
            assert report["ended"] == ended
            first_line = format_watch_report(report).splitlines()[0]
            assert f"seed=7  {status}  round" in first_line, first_line
        report = watch_report(cases[2][0])
        assert report["markers"]["aborted"] is True and report["healthy"] is False


class TestResolveTarget:
    def test_directory_resolves_to_default_name(self, tmp_path):
        assert resolve_heartbeat_path(tmp_path) == tmp_path / "heartbeat.jsonl"

    def test_file_passes_through(self, tmp_path):
        target = tmp_path / "x.jsonl"
        target.write_text("")
        assert resolve_heartbeat_path(target) == target

    def test_from_path_tolerates_live_tail(self, tmp_path):
        path = tmp_path / "heartbeat.jsonl"
        _write(path, [HEADER, _tick(0)])
        with path.open("a") as fh:
            fh.write('{"v":2,"kind":"tick","rou')
        report = watch_report_from_path(tmp_path)
        assert report["ticks"] == 1


class TestWatchCommand:
    def _stream(self, tmp_path, extra=()):
        path = tmp_path / "heartbeat.jsonl"
        _write(
            path,
            [HEADER, _tick(0, wall_s=1.0), _tick(1, wall_s=2.0), *extra],
        )
        return path

    def test_healthy_exit_0(self, tmp_path, capsys):
        path = self._stream(tmp_path)
        assert main(["watch", str(path), "--once"]) == 0
        assert "run health: HEALTHY" in capsys.readouterr().out

    def test_run_directory_target(self, tmp_path, capsys):
        self._stream(tmp_path)
        assert main(["watch", str(tmp_path), "--once"]) == 0
        capsys.readouterr()

    def test_aborted_exit_1(self, tmp_path, capsys):
        path = self._stream(
            tmp_path, extra=[{"v": V, "kind": "abort", "reason": "sigterm"}]
        )
        assert main(["watch", str(path), "--once"]) == 1
        capsys.readouterr()

    def test_missing_file_exit_2(self, tmp_path, capsys):
        assert main(["watch", str(tmp_path / "nope.jsonl"), "--once"]) == 2
        assert "no heartbeat file" in capsys.readouterr().err

    def test_headerless_stream_exit_2(self, tmp_path, capsys):
        path = tmp_path / "heartbeat.jsonl"
        _write(path, [_tick(0)])
        assert main(["watch", str(path), "--once"]) == 2
        assert "no header" in capsys.readouterr().err

    def test_bad_interval_exit_2(self, tmp_path, capsys):
        path = self._stream(tmp_path)
        assert main(["watch", str(path), "--once", "--interval", "0"]) == 2
        capsys.readouterr()

    def test_json_to_stdout(self, tmp_path, capsys):
        path = self._stream(tmp_path)
        assert main(["watch", str(path), "--once", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["version"] == 1 and report["healthy"] is True

    def test_json_to_file(self, tmp_path, capsys):
        path = self._stream(tmp_path)
        out = tmp_path / "report.json"
        assert main(["watch", str(path), "--once", "--json", str(out)]) == 0
        capsys.readouterr()
        assert json.loads(out.read_text())["ticks"] == 2

    def test_min_convergence_gate(self, tmp_path, capsys):
        path = tmp_path / "heartbeat.jsonl"
        _write(path, [HEADER, _tick(0, gauges={"glap/q_cosine": 0.3})])
        assert main(["watch", str(path), "--once", "--min-convergence", "0.9"]) == 1
        capsys.readouterr()

    def test_follow_mode_exits_when_complete(self, tmp_path, capsys):
        """Follow mode on an already-terminal stream renders once and
        exits without sleeping."""
        path = self._stream(tmp_path, extra=[{"v": V, "kind": "complete", "ticks": 2}])
        assert main(["watch", str(path), "--interval", "0.05"]) == 0
        assert "complete" in capsys.readouterr().out

    def _follow(self, path, argv, monkeypatch, appended):
        """Run follow mode with each sleep appending the next records of
        ``appended`` to the stream; returns the number of sleeps."""
        sleeps = []

        def sleep(_seconds):
            sleeps.append(None)
            with path.open("a") as fh:
                for record in appended.pop(0):
                    fh.write(json.dumps(record, separators=(",", ":")) + "\n")

        monkeypatch.setattr("repro.cli.time.sleep", sleep)
        status = main(["watch", str(path), *argv, "--interval", "0.01"])
        return status, len(sleeps)

    def test_follow_mode_keeps_following_an_aborted_then_resumed_run(
        self, tmp_path, capsys, monkeypatch
    ):
        abort = {"v": V, "kind": "abort", "reason": "sigterm", "round": 1}
        resumed = {"v": V, "kind": "resumed", "resumed_from": 0}
        path = self._stream(tmp_path, extra=[abort, resumed])
        appended = [[_tick(2, wall_s=0.5)], [{"v": V, "kind": "complete", "ticks": 3}]]
        status, sleeps = self._follow(path, [], monkeypatch, appended)
        # The abort stays on the stream, so the exit code is 1.
        assert (status, sleeps) == (1, 2)
        renders = capsys.readouterr().out.split("\n\n")
        assert "live  round 1/9" in renders[0] and "live  round 2/9" in renders[1]
        assert "complete  round 2/9" in renders[-1]

    def test_follow_mode_json_to_stdout_is_only_the_report(
        self, tmp_path, capsys, monkeypatch
    ):
        path = self._stream(tmp_path)
        appended = [[_tick(2, wall_s=3.0)], [{"v": V, "kind": "complete", "ticks": 3}]]
        status, sleeps = self._follow(path, ["--json"], monkeypatch, appended)
        assert (status, sleeps) == (0, 2)
        report = json.loads(capsys.readouterr().out)
        assert report["ended"] == "complete" and report["ticks"] == 3
