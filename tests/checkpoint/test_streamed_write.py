"""``save_checkpoint`` streams the document to disk a piece at a time
(EXPERIMENTS.md "Checkpointing long experiments"): the bytes the eager
encoder made (``tests/util/_reference_codec.py``), a peak of one slice
of text rather than the file, and the atomic tmp + rename around it.

The packed leaves of a capture hold live arrays until they are written,
so a ``state_dict()`` a caller keeps must still be a snapshot: the last
test holds one across two rounds."""

import json
from dataclasses import replace

import pytest

from repro.checkpoint import restore_checkpoint, save_checkpoint, snapshot
from repro.core.glap import GlapConfig
from repro.experiments.runner import POLICY_NAMES, make_policy, run_policy, run_round, wire_run
from repro.experiments.scenarios import Scenario
from repro.traces.google import GoogleTraceParams
from repro.util.io import iter_json
from tests._traced import traced_peak
from tests.util._reference_codec import eager

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
    env)``; the second save writes the first one's bytes."""
    tmp_path = tmp_path_factory.mktemp("ck")
    first, again = tmp_path / "first.json", tmp_path / "again.json"
    run_policy(CELL, _policy(request.param), CELL.seed_of(0), checkpoint_path=first)
    env = restore_checkpoint(first, _policy(request.param))
    save_checkpoint(env, again)
    assert again.read_bytes() == first.read_bytes()
    return again, env


def test_file_is_json_dumps_of_the_payload(saved):
    """The payload as the eager encoder builds it."""
    path, env = saved
    assert path.read_bytes() == json.dumps(eager(snapshot._payload(env))).encode()


def test_write_stage_holds_no_copy_of_the_document(saved):
    """The whole save, capture and write, traced: a slice of the file,
    not the file.  At most 125 KB was measured for every policy, against
    a 5.2 MB GLAP file.  Building the whole payload first (leaf bytes,
    base64 and text at once) took 10.5 MB, twice the file."""
    path, env = saved
    _, peak = traced_peak(save_checkpoint, env, path)
    assert path.stat().st_size >= 80_000
    assert peak <= 192 * 1024, f"{peak} B traced for a {path.stat().st_size} B file"


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


@pytest.mark.parametrize("name", ["GLAP", "GRMP", "PABFD"])  # EcoCloud's has no packed leaf
def test_a_held_state_dict_is_a_snapshot(name):
    """Held over two more rounds, a policy's ``state_dict()`` still
    writes the bytes it wrote when taken.  GLAP's is held in its
    aggregation phase with partitioned exchange, which averages the
    Q-maps' values in place: without ``QTable.pack_all`` taking the
    tables' ownership, the held leaves change with them."""
    policy = (
        make_policy(name, config=GlapConfig(aggregation_rounds=3, q_partitions=4))
        if name == "GLAP" else _policy(name)
    )
    env = wire_run(CELL, policy, CELL.seed_of(0))
    for _ in range(CELL.warmup_rounds - 2):
        run_round(env)
    held = policy.state_dict()
    at_capture = "".join(iter_json(held))
    run_round(env)
    run_round(env)
    # Compared as booleans: a diff of two such texts takes minutes.
    changed = "".join(iter_json(policy.state_dict())) != at_capture
    unchanged = "".join(iter_json(held)) == at_capture
    assert changed, "the two rounds changed nothing"
    assert unchanged, "the held state_dict changed with the run"
