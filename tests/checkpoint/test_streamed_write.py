"""``save_checkpoint`` streams the document to disk a piece at a time
(EXPERIMENTS.md "Checkpointing long experiments"): the same bytes
``json.dumps`` made, never a copy of the whole text, and the atomic
tmp + rename around it."""

import json
from dataclasses import replace

import pytest

from repro.checkpoint import restore_checkpoint, save_checkpoint, snapshot
from repro.core.glap import GlapConfig
from repro.experiments.runner import POLICY_NAMES, make_policy, run_policy
from repro.experiments.scenarios import Scenario
from repro.traces.google import GoogleTraceParams
from repro.util.io import atomic_write_chunks, iter_json
from tests._traced import traced_peak

#: Checkpoints of 80 KB (EcoCloud) to 5 MB (GLAP, its Q-maps).
CELL = Scenario(
    n_pms=200,
    ratio=3,
    rounds=6,
    warmup_rounds=8,
    repetitions=1,
    trace_params=GoogleTraceParams(rounds_per_day=8),
)
GLAP_KW = {"config": GlapConfig(aggregation_rounds=3)}


def _policy(name):
    return make_policy(name, **(GLAP_KW if name == "GLAP" else {}))


@pytest.fixture(scope="module", params=POLICY_NAMES)
def saved(request, tmp_path_factory):
    """A run's final checkpoint, restored and saved again: ``(path,
    payload)``; the second save writes the first one's bytes."""
    tmp_path = tmp_path_factory.mktemp("ck")
    first, again = tmp_path / "first.json", tmp_path / "again.json"
    run_policy(CELL, _policy(request.param), CELL.seed_of(0), checkpoint_path=first)
    payload = save_checkpoint(restore_checkpoint(first, _policy(request.param)), again)
    assert again.read_bytes() == first.read_bytes()
    return again, payload


def test_file_is_json_dumps_of_the_payload(saved):
    path, payload = saved
    assert path.read_bytes() == json.dumps(payload).encode()


def test_write_stage_holds_no_copy_of_the_document(saved):
    """Measured at most 36 KB whatever the file's size: the file object
    and two 8 KiB pieces.  ``json.dumps`` + ``write_text`` took twice
    the file."""
    path, payload = saved
    _, peak = traced_peak(lambda: atomic_write_chunks(iter_json(payload), path))
    assert path.stat().st_size >= 80_000
    assert peak <= 48 * 1024


def test_failure_mid_stream_keeps_the_previous_checkpoint(tmp_path, monkeypatch):
    ckpt = tmp_path / "ck.json"
    small = replace(CELL, n_pms=8, ratio=2)
    run_policy(small, _policy("EcoCloud"), small.seed_of(0), checkpoint_path=ckpt)
    before = ckpt.read_bytes()
    env = restore_checkpoint(ckpt, _policy("EcoCloud"))
    tmp = ckpt.with_name(ckpt.name + ".tmp")
    tmp_seen = []

    def watched(payload):
        for piece in iter_json(payload):
            tmp_seen.append(tmp.exists())
            yield piece

    # The policy section cannot be encoded: the pieces before it are
    # already in the .tmp file when the encoder raises.
    monkeypatch.setattr(snapshot, "iter_json", watched)
    monkeypatch.setattr(env.policy, "state_dict", lambda: {"bad": object()})
    with pytest.raises(TypeError, match="not JSON serializable"):
        save_checkpoint(env, ckpt)
    assert tmp_seen[-1]
    assert ckpt.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ck.json"]
