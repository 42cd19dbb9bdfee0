"""Unit tests for the checkpoint file format and its guard rails."""

import json

import pytest

from repro.checkpoint import (
    CHECKPOINT_SCHEMA,
    CHECKPOINT_SCHEMA_VERSION,
    load_checkpoint,
    restore_checkpoint,
)
from repro.core.glap import GlapConfig
from repro.experiments.runner import make_policy, resume_policy, run_policy
from repro.experiments.scenarios import Scenario
from repro.traces.google import GoogleTraceParams

SCENARIO = Scenario(
    n_pms=8,
    ratio=2,
    rounds=6,
    warmup_rounds=8,
    repetitions=1,
    trace_params=GoogleTraceParams(rounds_per_day=8),
)
GLAP_KW = {"config": GlapConfig(aggregation_rounds=3)}


def _checkpointed_run(tmp_path, policy_name="EcoCloud", **kw):
    ckpt = tmp_path / "ck.json"
    kwargs = GLAP_KW if policy_name == "GLAP" else {}
    result = run_policy(
        SCENARIO,
        make_policy(policy_name, **kwargs),
        SCENARIO.seed_of(0),
        checkpoint_path=ckpt,
        **kw,
    )
    return result, ckpt


class TestEnvelope:
    def test_schema_fields_present(self, tmp_path):
        _, ckpt = _checkpointed_run(tmp_path)
        payload = load_checkpoint(ckpt)
        assert payload["schema"] == CHECKPOINT_SCHEMA
        assert payload["schema_version"] == CHECKPOINT_SCHEMA_VERSION
        assert payload["policy"] == "EcoCloud"
        assert payload["progress"]["eval_rounds_done"] == SCENARIO.rounds

    def test_rejects_non_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{truncated")
        with pytest.raises(ValueError, match="not valid JSON"):
            load_checkpoint(bad)

    def test_rejects_wrong_schema(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema": "something-else", "schema_version": 1}))
        with pytest.raises(ValueError, match="schema"):
            load_checkpoint(bad)

    def test_rejects_future_schema_version(self, tmp_path):
        _, ckpt = _checkpointed_run(tmp_path)
        payload = json.loads(ckpt.read_text())
        payload["schema_version"] = CHECKPOINT_SCHEMA_VERSION + 1
        ckpt.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="schema_version"):
            load_checkpoint(ckpt)

    def test_rejects_missing_state_section(self, tmp_path):
        _, ckpt = _checkpointed_run(tmp_path)
        payload = json.loads(ckpt.read_text())
        del payload["state"]["placement"]
        ckpt.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="placement"):
            load_checkpoint(ckpt)

    def test_no_tmp_file_left_after_save(self, tmp_path):
        _checkpointed_run(tmp_path)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ck.json"]


class TestGuardRails:
    def test_checkpoint_every_without_path_rejected(self):
        with pytest.raises(ValueError, match="checkpoint_path"):
            run_policy(
                SCENARIO,
                make_policy("EcoCloud"),
                SCENARIO.seed_of(0),
                checkpoint_every=2,
            )

    def test_nonpositive_checkpoint_every_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="checkpoint_every"):
            run_policy(
                SCENARIO,
                make_policy("EcoCloud"),
                SCENARIO.seed_of(0),
                checkpoint_every=0,
                checkpoint_path=tmp_path / "ck.json",
            )

    def test_resume_rejects_bad_cadence_before_restoring(self, tmp_path):
        # No such file: the cadence is refused before a restore is even
        # attempted (it used to surface only after the whole rebuild).
        with pytest.raises(ValueError, match="checkpoint_every"):
            resume_policy(
                tmp_path / "missing.json",
                make_policy("EcoCloud"),
                checkpoint_every=0,
            )

    def test_policy_name_mismatch_rejected(self, tmp_path):
        _, ckpt = _checkpointed_run(tmp_path, policy_name="EcoCloud")
        with pytest.raises(ValueError, match="EcoCloud"):
            restore_checkpoint(ckpt, make_policy("PABFD"))

    def test_stateless_policy_rejects_foreign_state(self):
        from repro.baselines.base import ConsolidationPolicy

        class Dummy(ConsolidationPolicy):
            name = "dummy"

            def attach(self, dc, sim, streams, warmup_rounds):
                pass

            def step(self, dc, sim):
                pass

        with pytest.raises(ValueError):
            Dummy().load_state_dict({"surprise": 1})


class TestRetiredSchemas:
    @pytest.mark.parametrize("version", [1, 2, 3, 5])
    def test_retired_and_future_versions_are_refused(self, version, tmp_path):
        """Version 1 (per-object dicts), version 2 (columns as JSON number
        lists) and version 3 (every table's arrays in full) were once
        read, version 5 does not exist yet: the envelope check turns all
        of them away, nothing is converted."""
        assert CHECKPOINT_SCHEMA_VERSION == 4
        _, ckpt = _checkpointed_run(tmp_path, policy_name="GLAP")
        payload = json.loads(ckpt.read_text())
        payload["schema_version"] = version
        ckpt.write_text(json.dumps(payload))
        refusal = (
            rf"schema_version {version} unsupported "
            rf"\(this build reads version {CHECKPOINT_SCHEMA_VERSION}\)"
        )
        with pytest.raises(ValueError, match=refusal):
            load_checkpoint(ckpt)
        with pytest.raises(ValueError, match=refusal):
            resume_policy(ckpt, make_policy("GLAP", **GLAP_KW))


class TestFinalCheckpointResume:
    def test_resume_from_final_checkpoint_reproduces_result(self, tmp_path):
        """A final checkpoint (all rounds done) must restore and return the
        identical result without executing a single extra round — the
        crash-after-checkpoint-before-result window of a sweep worker."""
        base, ckpt = _checkpointed_run(tmp_path, policy_name="GLAP")
        resumed = resume_policy(ckpt, make_policy("GLAP", **GLAP_KW))
        assert resumed.slavo == base.slavo
        assert resumed.slalm == base.slalm
        assert resumed.total_migrations == base.total_migrations
        assert resumed.dc_energy_j == base.dc_energy_j
        for name in base.series:
            assert list(base.series[name]) == list(resumed.series[name])
