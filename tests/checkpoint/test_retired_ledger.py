"""Checkpoints across the retirement of the federation ledger.

Schema v3 kept two places for the ledger: the scenario's last key,
``sharding``, and ``state["ledger"]``.  An unsharded run writes both as
``null``, byte for byte the file it always wrote, and such a file
resumes to the golden digest.  A file of a sharded run is refused by
name, whichever layout carries the ledger: the scenario's layout with
the state's counters, the counters alone, or an older file's top-level
``sharding`` section.
"""

import json

import pytest

from repro.checkpoint import load_checkpoint
from repro.experiments.runner import make_policy, resume_policy
from tests.checkpoint.test_equivalence import _golden, _run_until_midpoint
from tests.golden.test_golden_runs import POLICY_KWARGS, digest_run

LAYOUT = {"n_shards": 4, "wan_factor": 0.25}
#: A sharded run's ledger counters, as the state held them.
COUNTERS = {"msgs_intra": 120, "msgs_inter": 36, "channels": {"0-1": 36}}


def _glap():
    return make_policy("GLAP", **POLICY_KWARGS["GLAP"])


def test_unsharded_file_keeps_null_slots_and_resumes_to_golden(tmp_path):
    ckpt = tmp_path / "ck.json"
    _run_until_midpoint("GLAP", "chaos", ckpt)
    payload = json.loads(ckpt.read_text())
    assert list(payload["scenario"])[-1] == "sharding"
    assert payload["scenario"]["sharding"] is None
    assert "ledger" in payload["state"] and payload["state"]["ledger"] is None
    assert "sharding" not in payload
    assert digest_run(resume_policy(ckpt, _glap())) == _golden("GLAP/chaos")


def _in_scenario(payload):
    payload["scenario"]["sharding"] = LAYOUT
    payload["state"]["ledger"] = COUNTERS


def _counters_only(payload):
    payload["state"]["ledger"] = COUNTERS


def _top_level(payload):
    del payload["scenario"]["sharding"], payload["state"]["ledger"]
    payload["sharding"] = {**LAYOUT, "ledger": COUNTERS}


@pytest.mark.parametrize(
    "shard", [_in_scenario, _counters_only, _top_level],
    ids=["in-scenario", "counters-only", "top-level"],
)
def test_sharded_checkpoint_is_refused(shard, tmp_path):
    ckpt = tmp_path / "ck.json"
    _run_until_midpoint("GLAP", "clean", ckpt)
    payload = json.loads(ckpt.read_text())
    shard(payload)
    ckpt.write_text(json.dumps(payload))
    refusal = "sharded run; the federation ledger is retired"
    with pytest.raises(ValueError, match=refusal):
        load_checkpoint(ckpt)
    with pytest.raises(ValueError, match=refusal):
        resume_policy(ckpt, _glap())
