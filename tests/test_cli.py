"""Tests for repro.cli."""

import json

import pytest

from repro.cli import build_parser, main

SCENARIO = {"pms": 60, "ratio": 3, "rounds": 180, "warmup": 180, "seed": 2016}
GOSSIP_BW = {"q_partitions": 1, "gossip_tokens": 0.0, "gossip_token_capacity": None}

#: Every subcommand's full namespace at its required arguments: each flag
#: with its default.  Sharing a flag's declaration between subcommands
#: must change none of these.
SURFACE = [
    (["run"], {
        "command": "run", **SCENARIO, "policy": "GLAP", "trace": None,
        "profile": False, "telemetry": False, "convergence_every": 10,
        "bench_out": None, "checkpoint": None, "checkpoint_every": None,
        "resume_from": None, "shards": None, "wan_factor": 0.25,
        "heartbeat": None, "heartbeat_every": 1, "postmortem": None, **GOSSIP_BW,
    }),
    (["compare"], {"command": "compare", **SCENARIO, "reps": 1}),
    (["sweep"], {
        "command": "sweep", "sizes": [30, 60], "ratios": [2, 3, 4],
        "rounds": 180, "warmup": 180, "reps": 2, "out": None, "bench_out": None,
        "store": None, "checkpoint_every": None, "resume": False, "jobs": None,
        **GOSSIP_BW,
    }),
    (["chaos"], {
        "command": "chaos", **SCENARIO, "reps": 1, "loss": [0.0, 0.1, 0.3],
        "churn": 0.0, "churn_downtime": 5, "partition_rounds": None,
        "partition_groups": 2, "policies": ["GLAP", "EcoCloud", "GRMP", "PABFD"],
        "out": None, "jobs": None,
    }),
    (["figures", "--figure", "6"], {
        "command": "figures", "figure": "6", "pms": 40, "rounds": 180,
        "warmup": 180, "reps": 1, "jobs": None,
    }),
    (["report", "--results", "r.json"], {"command": "report", "results": "r.json"}),
    (["trace", "--out", "t.csv"], {
        "command": "trace", "vms": 100, "rounds": 180, "seed": 0, "out": "t.csv",
    }),
    (["bench-compare", "a.json", "b.json"], {
        "command": "bench-compare", "baseline": "a.json", "current": "b.json",
        "tolerance": 0.15, "skip_timings": False, "update_baseline": False,
        "ignore_telemetry": [],
    }),
    (["analyze"], {
        "command": "analyze", "target": None, "summary": None,
        "min_convergence": None, "json": None, "diff": None,
    }),
    (["watch", "hb.jsonl"], {
        "command": "watch", "target": "hb.jsonl", "once": False, "json": None,
        "interval": 5.0, "min_convergence": None,
    }),
]


class TestParser:
    @pytest.mark.parametrize("argv,expected", SURFACE, ids=[c[0][0] for c in SURFACE])
    def test_surface_is_pinned(self, argv, expected):
        assert vars(build_parser().parse_args(argv)) == expected

    @pytest.mark.parametrize(
        "argv,flag",
        [
            (["sweep", "--resume"], "--resume"),
            (["sweep", "--checkpoint-every", "5"], "--checkpoint-every"),
            (["run", "--checkpoint-every", "5"], "--checkpoint-every"),
            (["run", "--heartbeat", "hb.jsonl", "--heartbeat-every", "0"],
             "--heartbeat-every"),
        ],
        ids=["sweep-resume", "sweep-checkpoint-every", "run-checkpoint-every",
             "run-heartbeat-every"],
    )
    def test_flag_misuse_exits_2(self, argv, flag, tmp_path, monkeypatch, capsys):
        """Refused at parse time, before any run starts or file is written."""
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        error = capsys.readouterr().err.strip().splitlines()[-1]
        assert error.startswith("glap: error:") and flag in error
        assert list(tmp_path.iterdir()) == []

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.policy == "GLAP" and args.pms == 60

    def test_unknown_policy_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--policy", "Nope"])

    def test_command_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_figure_choices(self):
        args = build_parser().parse_args(["figures", "--figure", "table1"])
        assert args.figure == "table1"

    def test_jobs_flag(self):
        args = build_parser().parse_args(["sweep", "--jobs", "4"])
        assert args.jobs == 4
        args = build_parser().parse_args(["sweep"])
        assert args.jobs is None  # falls back to $REPRO_JOBS / 1
        args = build_parser().parse_args(["figures", "--figure", "6", "--jobs", "2"])
        assert args.jobs == 2

    def test_shard_flags(self):
        args = build_parser().parse_args(["run", "--shards", "4", "--wan-factor", "0.5"])
        assert (args.shards, args.wan_factor) == (4, 0.5)
        with pytest.raises(SystemExit):  # retired with the worker layer
            build_parser().parse_args(["run", "--shards", "4", "--shard-inline"])
        with pytest.raises(ValueError, match="cannot exceed n_pms"):
            main(["run", "--pms", "4", "--shards", "5", "--warmup", "35"])


class TestFiguresCommand:
    def test_figure5_path(self, capsys):
        rc = main(["figures", "--figure", "5", "--pms", "10",
                   "--rounds", "4", "--warmup", "35", "--reps", "1"])
        assert rc == 0
        assert "Figure 5" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "figure,expect",
        [("6", "Figure 6"), ("7", "Figure 7"), ("8", "Figure 8"),
         ("9", "Figure 9"), ("10", "Figure 10"), ("table1", "Table I")],
    )
    def test_sweep_backed_figures(self, figure, expect, capsys):
        rc = main(["figures", "--figure", figure, "--pms", "8",
                   "--rounds", "5", "--warmup", "35", "--reps", "1"])
        assert rc == 0
        assert expect in capsys.readouterr().out


class TestTraceCommand:
    def test_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "t.csv"
        rc = main(["trace", "--vms", "4", "--rounds", "6", "--out", str(out)])
        assert rc == 0
        assert out.exists()
        assert "4 VMs x 6 rounds" in capsys.readouterr().out


class TestRunCommand:
    def test_small_run_prints_result(self, capsys):
        rc = main(
            ["run", "--policy", "GRMP", "--pms", "10", "--ratio", "2",
             "--rounds", "8", "--warmup", "6"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "GRMP" in out and "SLAVO" in out


class TestCompareCommand:
    def test_lists_all_policies(self, capsys):
        rc = main(
            ["compare", "--pms", "10", "--ratio", "2", "--rounds", "6",
             "--warmup", "35"]  # > default GLAP aggregation rounds
        )
        assert rc == 0
        out = capsys.readouterr().out
        for name in ("GLAP", "EcoCloud", "GRMP", "PABFD"):
            assert name in out

    def test_lines_are_policy_first_then_repetition(self, capsys):
        """One line per run, in POLICY_NAMES order and seed order within a
        policy, each equal to a direct run with a fresh policy."""
        from repro.experiments.runner import POLICY_NAMES, make_policy, run_policy
        from repro.experiments.scenarios import Scenario
        from repro.traces.google import GoogleTraceParams

        rc = main(
            ["compare", "--pms", "10", "--ratio", "2", "--rounds", "6",
             "--warmup", "35", "--reps", "2", "--seed", "7"]
        )
        assert rc == 0
        scenario = Scenario(
            n_pms=10, ratio=2, rounds=6, warmup_rounds=35, repetitions=2,
            base_seed=7, trace_params=GoogleTraceParams(rounds_per_day=6),
        )
        expected = [
            str(run_policy(scenario, make_policy(name), scenario.seed_of(rep)))
            for name in POLICY_NAMES
            for rep in range(2)
        ]
        assert capsys.readouterr().out.splitlines() == expected


class TestRunObservability:
    RUN_ARGS = ["run", "--policy", "GRMP", "--pms", "10", "--ratio", "2",
                "--rounds", "8", "--warmup", "6"]

    def test_trace_flag_writes_jsonl(self, tmp_path, capsys):
        from repro.obs.tracer import load_trace

        trace = tmp_path / "run.jsonl"
        rc = main(self.RUN_ARGS + ["--trace", str(trace)])
        assert rc == 0
        assert "events to" in capsys.readouterr().out
        events = load_trace(trace)  # validates every line
        assert events, "a consolidating run must emit events"

    def test_profile_prints_breakdown_and_writes_default_summary(
        self, tmp_path, capsys, monkeypatch
    ):
        from repro.obs.summary import load_summary

        monkeypatch.chdir(tmp_path)
        rc = main(self.RUN_ARGS + ["--profile"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "engine_round" in out and "%parent" in out
        summary = load_summary(tmp_path / "BENCH_run.json")
        assert summary["kind"] == "run"
        assert summary["context"]["policy"] == "GRMP"
        assert "engine_round" in summary["timings"]["phases"]

    def test_bench_out_without_profile(self, tmp_path):
        from repro.obs.summary import load_summary

        path = tmp_path / "b.json"
        rc = main(self.RUN_ARGS + ["--bench-out", str(path)])
        assert rc == 0
        summary = load_summary(path)
        assert summary["timings"]["wall_s"] > 0.0
        assert "phases" not in summary["timings"]  # no profiler attached


class TestBenchCompareCommand:
    @pytest.fixture()
    def artifacts(self, tmp_path):
        base = tmp_path / "baseline.json"
        rc = main(["run", "--policy", "GRMP", "--pms", "10", "--ratio", "2",
                   "--rounds", "8", "--warmup", "6", "--bench-out", str(base)])
        assert rc == 0
        return tmp_path, base

    def test_identical_summaries_pass(self, artifacts, capsys):
        tmp_path, base = artifacts
        rc = main(["bench-compare", str(base), str(base)])
        assert rc == 0
        assert "OK" in capsys.readouterr().out

    def test_rerun_matches_baseline_metrics(self, artifacts, capsys):
        # A fresh run of the pinned cell drifts in timing but never in
        # metrics — the machine-independent CI gate.
        tmp_path, base = artifacts
        cur = tmp_path / "current.json"
        rc = main(["run", "--policy", "GRMP", "--pms", "10", "--ratio", "2",
                   "--rounds", "8", "--warmup", "6", "--bench-out", str(cur)])
        assert rc == 0
        rc = main(["bench-compare", str(base), str(cur), "--skip-timings"])
        assert rc == 0

    def test_injected_timing_regression_fails(self, artifacts, capsys):
        tmp_path, base = artifacts
        bumped = json.loads(base.read_text())
        bumped["timings"]["wall_s"] *= 1.20
        reg = tmp_path / "regressed.json"
        reg.write_text(json.dumps(bumped))
        rc = main(["bench-compare", str(base), str(reg), "--tolerance", "0.15"])
        assert rc == 1
        assert "timing_regression" in capsys.readouterr().out

    def test_metric_drift_fails_even_with_skip_timings(self, artifacts, capsys):
        tmp_path, base = artifacts
        drifted = json.loads(base.read_text())
        drifted["metrics"]["total_migrations"] += 1
        cur = tmp_path / "drifted.json"
        cur.write_text(json.dumps(drifted))
        rc = main(["bench-compare", str(base), str(cur), "--skip-timings"])
        assert rc == 1
        assert "metric_drift" in capsys.readouterr().out

    def test_update_baseline_overwrites_and_passes(self, artifacts, capsys):
        tmp_path, base = artifacts
        bumped = json.loads(base.read_text())
        bumped["timings"]["wall_s"] *= 10.0
        cur = tmp_path / "new.json"
        cur.write_text(json.dumps(bumped))
        rc = main(["bench-compare", str(base), str(cur), "--update-baseline"])
        assert rc == 0
        assert "updated baseline" in capsys.readouterr().out
        assert json.loads(base.read_text()) == bumped

    def test_malformed_input_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        rc = main(["bench-compare", str(bad), str(bad)])
        assert rc == 2
        assert "bench-compare:" in capsys.readouterr().err

    def test_missing_file_exits_2(self, tmp_path):
        rc = main(["bench-compare", str(tmp_path / "a.json"),
                   str(tmp_path / "b.json")])
        assert rc == 2


class TestShardDeterminism:
    def test_shard_counts_differ_only_in_the_shard_namespace(self, tmp_path, capsys):
        """The pinned 40-PM cell at --shards 1 and --shards 4: metrics,
        per-round series and every non-shard telemetry series identical;
        only shard/* (which describes the partitioning) may differ.  This
        was the CI shard-determinism job's two runs plus its diff."""
        cell = ["run", "--policy", "GLAP", "--pms", "40", "--ratio", "3",
                "--rounds", "40", "--warmup", "40", "--seed", "2016", "--telemetry"]
        k1, k4 = tmp_path / "BENCH_shard1.json", tmp_path / "BENCH_shard4.json"
        assert main(cell + ["--shards", "1", "--bench-out", str(k1)]) == 0
        assert main(cell + ["--shards", "4", "--bench-out", str(k4)]) == 0
        capsys.readouterr()
        rc = main(["bench-compare", str(k1), str(k4),
                   "--skip-timings", "--ignore-telemetry", "shard/"])
        assert rc == 0, capsys.readouterr().out
        # ...and the exemption is what lets it pass: the ledgers do differ.
        assert main(["bench-compare", str(k1), str(k4), "--skip-timings"]) == 1

    def test_resume_runs_at_the_checkpointed_layout(self, tmp_path, monkeypatch):
        """``--shards`` is a scenario flag: on ``--resume-from`` the
        checkpoint's layout wins, so a 4-shard run interrupted after its
        round-4 checkpoint and resumed with ``--shards 2`` reports the
        uninterrupted 4-shard run's ``shard/*`` totals — no channel of a
        layout the run never had."""
        import repro.cli
        from repro.experiments.runner import run_policy
        from repro.obs.summary import load_summary

        class Interrupted(Exception):
            pass

        def stop_after_round_4(r, dc, sim):
            if r == 4:
                raise Interrupted

        cell = ["run", "--policy", "GRMP", "--pms", "12", "--ratio", "2",
                "--rounds", "8", "--warmup", "8", "--telemetry"]
        full, resumed = tmp_path / "full.json", tmp_path / "resumed.json"
        ckpt = str(tmp_path / "ck.json")
        assert main(cell + ["--shards", "4", "--bench-out", str(full)]) == 0
        with monkeypatch.context() as patch:
            patch.setattr(
                repro.cli, "run_policy",
                lambda *a, **kw: run_policy(*a, round_hook=stop_after_round_4, **kw),
            )
            with pytest.raises(Interrupted):
                main(cell + ["--shards", "4", "--checkpoint", ckpt,
                             "--checkpoint-every", "4"])
        assert json.loads(open(ckpt).read())["progress"]["eval_rounds_done"] == 4
        assert main(cell + ["--resume-from", ckpt, "--shards", "2",
                            "--bench-out", str(resumed)]) == 0

        def shard_totals(path):
            totals = load_summary(path)["telemetry"]["totals"]
            return {k: v for k, v in totals.items() if k.startswith("shard/")}

        expected = shard_totals(full)
        assert "shard/channel/3-0" in expected and expected["shard/msgs_inter"] > 0
        assert shard_totals(resumed) == expected


class TestChaosCommand:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["chaos"])
        assert args.loss == [0.0, 0.1, 0.3]
        assert args.churn == 0.0
        assert args.partition_rounds is None

    def test_grid_runs_and_archives(self, tmp_path, capsys):
        out = tmp_path / "chaos.json"
        rc = main(
            ["chaos", "--pms", "10", "--ratio", "2", "--rounds", "6",
             "--warmup", "35", "--reps", "1", "--loss", "0.0", "0.3",
             "--churn", "0.01", "--policies", "GRMP", "PABFD",
             "--out", str(out)]
        )
        assert rc == 0
        text = capsys.readouterr().out
        assert "Chaos sweep" in text
        assert "churn=0.01" in text and "loss=0.3,churn=0.01" in text
        assert "invariant intact" in text

        payload = json.loads(out.read_text())
        assert payload["format"] == 1
        # 2 fault levels x 2 policies x 1 rep
        assert len(payload["runs"]) == 4
        for run in payload["runs"]:
            # 6 eval + 35 warmup rounds, each invariant-checked.
            assert run["extras"]["invariant_rounds_checked"] == 41.0

    def test_partition_window(self, capsys):
        rc = main(
            ["chaos", "--pms", "8", "--ratio", "2", "--rounds", "6",
             "--warmup", "35", "--loss", "0.0", "--partition-rounds",
             "36", "40", "--policies", "GRMP"]
        )
        assert rc == 0
        assert "partition" in capsys.readouterr().out


class TestSweepCommand:
    def test_writes_archive_and_report_reloads_it(self, tmp_path, capsys):
        out = tmp_path / "results.json"
        rc = main(
            ["sweep", "--sizes", "10", "--ratios", "2", "--rounds", "6",
             "--warmup", "35", "--reps", "1", "--out", str(out)]
        )
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["format"] == 1
        text = capsys.readouterr().out
        assert "Figure 6" in text and "Table I" in text
        assert "Paper-shape report" in text

        # Re-analyse the archive without running any simulation.
        rc = main(["report", "--results", str(out)])
        assert rc == 0
        text = capsys.readouterr().out
        assert "Figure 7" in text and "Paper-shape report" in text

    def test_bench_out_writes_sweep_summary(self, tmp_path, capsys):
        from repro.obs.summary import load_summary

        path = tmp_path / "BENCH_sweep.json"
        rc = main(
            ["sweep", "--sizes", "10", "--ratios", "2", "--rounds", "6",
             "--warmup", "35", "--reps", "1", "--bench-out", str(path)]
        )
        assert rc == 0
        summary = load_summary(path)
        assert summary["kind"] == "sweep"
        assert summary["timings"]["phases"], "expected per-cell timings"
        assert f"wrote {path}" in capsys.readouterr().out

    def test_parallel_sweep_smoke(self, capsys):
        # The process-pool backend end to end through the CLI.
        rc = main(
            ["sweep", "--sizes", "10", "--ratios", "2", "--rounds", "6",
             "--warmup", "35", "--reps", "1", "--jobs", "2"]
        )
        assert rc == 0
        text = capsys.readouterr().out
        assert "Figure 6" in text and "Table I" in text


class TestRunTelemetry:
    RUN_ARGS = ["run", "--policy", "GLAP", "--pms", "10", "--ratio", "2",
                "--rounds", "8", "--warmup", "35"]

    def test_telemetry_prints_line_and_embeds_summary_section(
        self, tmp_path, capsys
    ):
        from repro.obs.summary import load_summary
        from repro.obs.telemetry import TELEMETRY_VERSION

        path = tmp_path / "b.json"
        rc = main(self.RUN_ARGS + ["--telemetry", "--convergence-every", "5",
                                   "--bench-out", str(path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "telemetry:" in out and "Q-cosine" in out
        section = load_summary(path)["telemetry"]
        assert section["version"] == TELEMETRY_VERSION
        totals = section["totals"]
        assert totals["net/sent"] == totals["net/delivered"] + totals["net/dropped"]
        gauge = section["gauges"]["glap/q_cosine"]
        assert gauge["rounds"][:2] == [0, 5]

    def test_no_telemetry_summary_has_no_section(self, tmp_path):
        from repro.obs.summary import load_summary

        path = tmp_path / "b.json"
        rc = main(self.RUN_ARGS + ["--bench-out", str(path)])
        assert rc == 0
        assert "telemetry" not in load_summary(path)


class TestAnalyzeCommand:
    @pytest.fixture()
    def artifacts(self, tmp_path):
        trace = tmp_path / "run.jsonl"
        summary = tmp_path / "b.json"
        rc = main(["run", "--policy", "GLAP", "--pms", "10", "--ratio", "2",
                   "--rounds", "8", "--warmup", "35", "--telemetry",
                   "--trace", str(trace), "--bench-out", str(summary)])
        assert rc == 0
        return trace, summary

    def test_trace_with_summary_is_healthy(self, artifacts, tmp_path, capsys):
        trace, summary = artifacts
        report_path = tmp_path / "health.json"
        rc = main(["analyze", str(trace), "--summary", str(summary),
                   "--min-convergence", "0.0", "--json", str(report_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "HEALTHY" in out and "0 violations" in out
        report = json.loads(report_path.read_text())
        assert report["healthy"] is True
        assert "message_conservation" in report["checks_run"]
        assert "convergence_threshold" in report["checks_run"]

    def test_summary_target_auto_detected(self, artifacts, capsys):
        _, summary = artifacts
        rc = main(["analyze", str(summary)])
        assert rc == 0
        assert "message_conservation" in capsys.readouterr().out

    def test_unreachable_convergence_fails(self, artifacts, capsys):
        trace, summary = artifacts
        rc = main(["analyze", str(trace), "--summary", str(summary),
                   "--min-convergence", "1.1"])
        assert rc == 1
        assert "UNHEALTHY" in capsys.readouterr().out

    def test_violating_trace_exits_1(self, tmp_path, capsys):
        trace = tmp_path / "bad.jsonl"
        trace.write_text(json.dumps({
            "ev": "eviction", "round": 3, "node": 1, "peer": 2, "vm": 7,
            "outcome": "migrated",
        }) + "\n")
        rc = main(["analyze", str(trace)])
        assert rc == 1
        assert "migration_pairing" in capsys.readouterr().out

    def test_usage_errors_exit_2(self, artifacts, tmp_path, capsys):
        trace, summary = artifacts
        assert main(["analyze"]) == 2
        assert main(["analyze", str(tmp_path / "missing.jsonl")]) == 2
        assert main(["analyze", str(trace), "--diff", str(trace), str(trace)]) == 2
        assert main(["analyze", "--diff", str(trace), str(trace),
                     "--min-convergence", "0.5"]) == 2
        garbled = tmp_path / "garbled.jsonl"
        garbled.write_text('{"ev": "not-a-kind", "round": 0, "node": 0}\n')
        assert main(["analyze", str(garbled)]) == 2
        # a summary without telemetry cannot be analysed on its own
        no_tel = tmp_path / "no_tel.json"
        rc = main(["run", "--policy", "GRMP", "--pms", "10", "--ratio", "2",
                   "--rounds", "4", "--warmup", "6", "--bench-out", str(no_tel)])
        assert rc == 0
        assert main(["analyze", str(no_tel)]) == 2
        assert "telemetry" in capsys.readouterr().err

    def test_corrupt_line_after_valid_events_exits_2(self, tmp_path, capsys):
        # The trace is read lazily, so line 3 fails inside the checks.
        trace = tmp_path / "torn.jsonl"
        valid = [
            {"ev": "pm_sleep", "round": 1, "node": 0},
            {"ev": "pm_wake", "round": 2, "node": 0},
        ]
        trace.write_text(
            "".join(json.dumps(e) + "\n" for e in valid)
            + '{"ev": "pm_sleep", "round": 3,\n'
            + json.dumps(valid[0]) + "\n"
        )
        assert main(["analyze", str(trace)]) == 2
        assert "line 3" in capsys.readouterr().err
        assert main(["analyze", "--diff", str(trace), str(trace)]) == 2
        assert "line 3" in capsys.readouterr().err

    def test_diff_exit_codes(self, artifacts, tmp_path, capsys):
        trace, _ = artifacts
        assert main(["analyze", "--diff", str(trace), str(trace)]) == 0
        assert "identical" in capsys.readouterr().out
        other = tmp_path / "other.jsonl"
        rc = main(["run", "--policy", "GLAP", "--pms", "10", "--ratio", "2",
                   "--rounds", "8", "--warmup", "35", "--seed", "77",
                   "--trace", str(other)])
        assert rc == 0
        diff_json = tmp_path / "diff.json"
        rc = main(["analyze", "--diff", str(trace), str(other),
                   "--json", str(diff_json)])
        assert rc == 1
        assert "differ" in capsys.readouterr().out
        assert json.loads(diff_json.read_text())["identical"] is False
