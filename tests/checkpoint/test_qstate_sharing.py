"""A restore shares the Q-maps' storage as the run it continues did,
and writes the same checkpoint bytes.

Each distinct key set is one read-only array with one position index
(DESIGN.md §5e), and tables may share one value array.  The checkpoint
stores each distinct array once with an index per table
(``QTable.pack_all``), and ``QTable.unpack_all`` binds key arrays
through the key pool and shares each value array among the tables that
shared it, so a restored GLAP run holds exactly as many key arrays, key
sets, value arrays and index objects as the uninterrupted run at its
checkpoint: counted by ``benchmarks/bench_qstate_census.py``'s
``census``.

The files themselves are pinned by SHA-256 for every policy on the
golden cell, clean and chaos.
"""

import gc
import hashlib
import sys
from pathlib import Path

import pytest

from repro.checkpoint import restore_checkpoint
from repro.experiments.runner import POLICY_NAMES, make_policy, run_policy
from tests.golden.test_golden_runs import POLICY_KWARGS, SCENARIO, VARIANTS

REPO_ROOT = Path(__file__).resolve().parents[2]
MIDPOINT = 8  # of SCENARIO.rounds == 15

#: The golden cell's checkpoint after its final save (``checkpoint_every``
#: = MIDPOINT, so one save at eval round 8 and the last at 15).
FILE_SHA256 = {
    "EcoCloud/chaos": "de8ad3929a5a358dcf4ef9cb3b925e0b1316c2b3b336019542ed64b8a57f9125",
    "EcoCloud/clean": "452e8410349b5f613ab69b90af83ee9fbe61b0cfa6961eeb6167a2ac7088857c",
    "GLAP/chaos": "d8399a89e0f80a385319fc64585d622b00e936521f06b8bc87b21bd391377b57",
    "GLAP/clean": "b1e69eda1cd2d9540a3a6cc18128229c6e6296d16f6ba671daa09c71d45f4523",
    "GRMP/chaos": "96b28b9aacc0eb78aab0f7d8915bfcfe12ba7f4009c6236a5b6ee41c93bfd396",
    "GRMP/clean": "40453d1fb00ae938159861bf6a2aaad30af86d3719e73f1b56212a4b36e3b2a5",
    "PABFD/chaos": "f55dd9ee2c2b0388ab4ec7ed9ab964a6a3d1dd548888898ad872e9ace002dc81",
    "PABFD/clean": "d823b23aad39f923d718522c91bc09a345bb21185fcfc56541f634acc5ae75bf",
}


def _census():
    """``census`` from the benchmark script, without leaving its
    ``benchmarks/e2e`` entry on ``sys.path``."""
    saved = list(sys.path)
    sys.path.insert(0, str(REPO_ROOT / "benchmarks"))
    try:
        from bench_qstate_census import census
    finally:
        sys.path[:] = saved
    return census


def _tables(policy):
    return [t for m in policy.models.values() for t in (m.q_out, m.q_in)]


class _Interrupted(Exception):
    pass


def test_a_restored_glap_run_shares_key_sets_as_the_uninterrupted_one(tmp_path):
    census = _census()
    ckpt = tmp_path / "ck.json"
    policy = make_policy("GLAP", **POLICY_KWARGS["GLAP"])
    live = {}

    def hook(r, dc, sim):
        # Round r's state is what the save after it writes (r + 1 done).
        if r == MIDPOINT - 1:
            live.update(census(_tables(policy)))
        elif r == MIDPOINT:
            raise _Interrupted

    with pytest.raises(_Interrupted):
        run_policy(SCENARIO, policy, SCENARIO.seed_of(0), round_hook=hook,
                   checkpoint_every=MIDPOINT, checkpoint_path=ckpt)
    # The restore builds its own arrays, not ones the dead run still holds.
    del policy, hook
    gc.collect()
    env = restore_checkpoint(ckpt, make_policy("GLAP", **POLICY_KWARGS["GLAP"]))
    restored = census(_tables(env.policy))

    assert 1 < live["key_sets"] < live["tables"]
    assert live["value_arrays"] < live["tables"]
    for field in ("tables", "key_arrays", "key_sets", "key_bytes", "value_arrays",
                  "value_bytes", "read_objects"):
        assert restored[field] == live[field], field
    assert restored["key_arrays"] == restored["key_sets"]
    assert (restored["key_dtype"], restored["bytes_per_key"]) == ("uint16", 2)


@pytest.mark.parametrize("name", POLICY_NAMES)
@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_checkpoint_bytes_are_pinned(name, variant, tmp_path):
    ckpt = tmp_path / "ck.json"
    run_policy(VARIANTS[variant], make_policy(name, **POLICY_KWARGS.get(name, {})),
               SCENARIO.seed_of(0), checkpoint_every=MIDPOINT, checkpoint_path=ckpt)
    assert hashlib.sha256(ckpt.read_bytes()).hexdigest() == FILE_SHA256[f"{name}/{variant}"]
