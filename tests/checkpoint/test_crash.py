"""Crash in the middle of a checkpoint, and a damaged checkpoint file.

A checkpoint is one atomically renamed file, so a run that dies while
writing its *second* checkpoint — temp file complete, rename not done —
must leave the *first* one intact, loadable and resumable to exactly the
uninterrupted run's result, with no ``.tmp`` beside it.  And a file whose
envelope is valid but one packed leaf is damaged must be refused by
``restore_checkpoint`` before a simulation is built or the caller's
policy is attached, whichever leaf it is.
"""

import json
import pathlib

import pytest

import repro.experiments.runner as runner
from repro.checkpoint import load_checkpoint, restore_checkpoint
from repro.core.glap import GlapConfig
from repro.experiments.runner import make_policy, resume_policy, run_policy
from repro.experiments.scenarios import Scenario
from repro.faults import FaultPlan
from repro.traces.google import GoogleTraceParams
from repro.util.io import pack_array, unpack_array
from tests.golden.test_golden_runs import digest_run

SCENARIO = Scenario(
    n_pms=10,
    ratio=2,
    rounds=6,
    warmup_rounds=8,
    repetitions=1,
    trace_params=GoogleTraceParams(rounds_per_day=8),
)
SEED = SCENARIO.seed_of(0)
EVERY = 2


def _policy():
    # Partitioned exchange: the per-node gossip cursors are populated.
    return make_policy("GLAP", config=GlapConfig(aggregation_rounds=3, q_partitions=2))


def _run(**kwargs):
    return run_policy(
        SCENARIO, _policy(), SEED, faults=FaultPlan.message_loss(0.1), **kwargs
    )


def test_crash_at_the_rename_of_the_second_save_keeps_the_first(tmp_path, monkeypatch):
    ckpt = tmp_path / "run.ckpt.json"
    real_replace = pathlib.Path.replace
    renames = []

    def replace_failing_second_time(self, target):
        if str(target) != str(ckpt):
            return real_replace(self, target)
        # The temp file is complete at this point: it parses, and it is
        # the checkpoint of the save being attempted.
        done = json.loads(self.read_text())["progress"]["eval_rounds_done"]
        renames.append(done)
        if len(renames) == 2:
            raise OSError("simulated crash between write and rename")
        return real_replace(self, target)

    monkeypatch.setattr(pathlib.Path, "replace", replace_failing_second_time)
    with pytest.raises(OSError, match="simulated crash"):
        _run(checkpoint_every=EVERY, checkpoint_path=ckpt)
    monkeypatch.undo()

    assert renames == [EVERY, 2 * EVERY]
    assert sorted(p.name for p in tmp_path.iterdir()) == [ckpt.name], "a .tmp was left behind"
    assert load_checkpoint(ckpt)["progress"]["eval_rounds_done"] == EVERY
    resumed = resume_policy(ckpt, _policy())
    assert digest_run(resumed) == digest_run(_run())


def _cut_tail(leaf):
    assert len(leaf["b64"]) >= 4, "an empty leaf: nothing to damage"
    leaf["b64"] = leaf["b64"][:-4]


def _flip_shape(leaf):
    leaf["shape"][0] += 1


def _object_dtype(leaf):
    leaf["dtype"] = "O"


@pytest.mark.parametrize("damage", [_cut_tail, _flip_shape, _object_dtype])
@pytest.mark.parametrize(
    "path",
    [
        "vms/monitor_average",
        "placement/vm_ids",
        "migrations/energy_j",
        "nodes",
        "policy/cyclon/ages",
        "policy/models/q_out/vals",
        "policy/gossip/rotation_nodes",
    ],
)
def test_damaged_leaf_is_refused_before_anything_is_built(path, damage, tmp_path, monkeypatch):
    ckpt = tmp_path / "run.ckpt.json"
    _run(checkpoint_path=ckpt)
    payload = json.loads(ckpt.read_text())
    leaf = payload["state"]
    for key in path.split("/"):
        leaf = leaf[key]
    damage(leaf)
    ckpt.write_text(json.dumps(payload))

    def must_not_build(*args, **kwargs):
        raise AssertionError("a simulation was built from a damaged checkpoint")

    monkeypatch.setattr(runner, "build_simulation", must_not_build)
    policy = _policy()
    with pytest.raises(ValueError, match=f"state/{path}"):
        restore_checkpoint(ckpt, policy)
    assert policy.phase_protocol is None and not policy.models, "the policy was attached"


# -- well-formed leaves, wrong content: the semantic checks still run ---------


def _duplicate_vm(a):
    a[1] = a[0]


def _owner_in_own_view(a):
    a[0] = 0  # node 0's view comes first


def _key_out_of_range(a):
    a[-1] = 65535


def _keys_unsorted(a):
    a[:2] = a[1::-1]


@pytest.mark.parametrize(
    "path, edit, message",
    [
        ("placement/vm_ids", _duplicate_vm, "cover every VM exactly once"),
        ("placement/count", lambda a: a.__setitem__(0, a[0] + 1), "cover every VM exactly once"),
        ("pms/asleep", lambda a: a[:-1], "data centre has"),
        ("vms/monitor_current", lambda a: a[:, :1], "data centre has"),
        ("nodes", lambda a: a.__setitem__(0, 9), "state code"),
        ("policy/cyclon/ids", _owner_in_own_view, "contains its owner"),
        ("policy/cyclon/count", lambda a: a.__setitem__(0, a[0] + 1), "do not add up"),
        ("policy/models/q_out/keys", _key_out_of_range, "state must be in"),
        ("policy/models/q_in/keys", _keys_unsorted, "not sorted and unique"),
        ("policy/models/owner", lambda a: a[:-1], "zip"),
        ("migrations/vm_id", lambda a: a[:-1], "zip"),
    ],
)
def test_well_formed_leaf_with_wrong_content_fails_the_semantic_checks(
    path, edit, message, tmp_path
):
    ckpt = tmp_path / "run.ckpt.json"
    _run(checkpoint_path=ckpt)
    payload = json.loads(ckpt.read_text())
    *parents, last = path.split("/")
    section = payload["state"]
    for key in parents:
        section = section[key]
    arr = unpack_array(section[last], path).copy()
    edited = edit(arr)
    section[last] = pack_array(arr if edited is None else edited)
    ckpt.write_text(json.dumps(payload))
    load_checkpoint(ckpt)  # the envelope and every leaf are still well-formed
    with pytest.raises(ValueError, match=message):
        restore_checkpoint(ckpt, _policy())
