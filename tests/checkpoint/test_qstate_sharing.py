"""A restore shares the Q-maps' key sets as the run it continues did,
and writes the same checkpoint bytes.

Each distinct key set is one read-only array with one position index
(DESIGN.md §5e), and ``QTable.unpack_all`` binds its tables through the
same key pool, so a restored GLAP run holds exactly as many key arrays,
key sets and index objects as the uninterrupted run at its checkpoint:
counted by ``benchmarks/bench_qstate_census.py``'s ``census``.  Value
arrays are still one per table after a restore (the checkpoint stores
no value sharing).

The files themselves are pinned by SHA-256 for every policy on the
golden cell, clean and chaos: holding keys as ``uint16`` in memory
changes no byte, since the ``keys`` leaf was ``<u2`` already.
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
    "EcoCloud/chaos": "30e47ff6c2ded5247989239d71a25be068788e6123bd9f1483423957c8b45f7a",
    "EcoCloud/clean": "e212aaeb3806071647a2fb5bcb08858d45759f307b239be91f6318f6e93650c3",
    "GLAP/chaos": "e225b76467789b4a096a541674d2d541fe1fadd8130bb4229892d20a615b46ba",
    "GLAP/clean": "9b86bebfc6574eb701b5ebd7c3172e847cf9bf0ef0b39c83d1321e18056ecca2",
    "GRMP/chaos": "0f2557b27ddf67e6b753ccf62db24df5e48d29ad0e8959c17a17efe1d2e7e522",
    "GRMP/clean": "63456270ac32ae2a9cf16f29292a551040dbe6e9929883787d6c07a52c8c6801",
    "PABFD/chaos": "df171fd8a70be4654bf1d956e718d198739215c280b945ecf29f2469c751be5c",
    "PABFD/clean": "fd9df396ff6fffc15c89e415572f1eb7e12ad8428dd69c84529d562202e21198",
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
    for field in ("tables", "key_arrays", "key_sets", "key_bytes", "read_objects"):
        assert restored[field] == live[field], field
    assert restored["key_arrays"] == restored["key_sets"]
    assert (restored["key_dtype"], restored["bytes_per_key"]) == ("uint16", 2)
    # Not shared by the checkpoint yet: one value array per table.
    assert restored["value_arrays"] == restored["tables"]


@pytest.mark.parametrize("name", POLICY_NAMES)
@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_checkpoint_bytes_are_pinned(name, variant, tmp_path):
    ckpt = tmp_path / "ck.json"
    run_policy(VARIANTS[variant], make_policy(name, **POLICY_KWARGS.get(name, {})),
               SCENARIO.seed_of(0), checkpoint_every=MIDPOINT, checkpoint_path=ckpt)
    assert hashlib.sha256(ckpt.read_bytes()).hexdigest() == FILE_SHA256[f"{name}/{variant}"]
