"""Scale guard: a checkpoint's *plain-JSON* part must not grow with the cell.

Schema v3 puts every section whose size follows ``n_pms``, ``n_vms`` or
the migration count into packed array leaves; what stays ordinary JSON
(scenario, RNG states, counters, per-round series) depends on the round
count only.  So the file size less its ``b64`` strings — the *residue* —
is the same at 50 and at 200 PMs.  A future ``state_dict`` that grows an
O(n) number list (the cost schema v2 paid: 1.4 s per save at 300 PMs
under GLAP) moves the residue and fails here, in tier-1, instead of
silently costing a layer of the run again.
"""

import json

import pytest

from repro.core.glap import GlapConfig
from repro.experiments.runner import POLICY_NAMES, make_policy, run_policy
from repro.experiments.scenarios import Scenario, ShardConfig
from repro.traces.google import GoogleTraceParams
from repro.util.io import unpack_array

SIZES = (50, 200)
#: GLAP with the partitioned, token-throttled exchange: the per-node
#: rotation cursors and token accounts are populated.
POLICY_KWARGS = {
    "GLAP": {
        "config": GlapConfig(aggregation_rounds=4, q_partitions=4, gossip_tokens=6000.0)
    }
}


def _leaves(node, path=""):
    if isinstance(node, dict):
        if "b64" in node:
            yield path, node
        else:
            for key, child in node.items():
                yield from _leaves(child, f"{path}/{key}")
    elif isinstance(node, list):
        for i, child in enumerate(node):
            yield from _leaves(child, f"{path}[{i}]")


def _checkpoint_text(policy_name: str, n_pms: int, tmp_path, **scenario_kwargs) -> str:
    scenario = Scenario(
        n_pms=n_pms,
        ratio=2,
        rounds=4,
        warmup_rounds=10,
        repetitions=1,
        trace_params=GoogleTraceParams(rounds_per_day=8),
        **scenario_kwargs,
    )
    ckpt = tmp_path / f"{policy_name}-{n_pms}.json"
    run_policy(
        scenario,
        make_policy(policy_name, **POLICY_KWARGS.get(policy_name, {})),
        scenario.seed_of(0),
        checkpoint_path=ckpt,
    )
    return ckpt.read_text()


#: Every policy unsharded, and one sharded run: its ledger's counters
#: ride in the state too (per channel, so O(K²), never O(n_pms)).
CASES = [(name, {}) for name in POLICY_NAMES] + [("GRMP", {"sharding": ShardConfig(n_shards=4)})]


@pytest.mark.parametrize(
    "policy_name, scenario_kwargs", CASES, ids=[*POLICY_NAMES, "GRMP-shards4"]
)
def test_plain_json_residue_does_not_scale_with_the_cell(policy_name, scenario_kwargs, tmp_path):
    residues, packed = {}, {}
    for n_pms in SIZES:
        text = _checkpoint_text(policy_name, n_pms, tmp_path, **scenario_kwargs)
        leaves = dict(_leaves(json.loads(text)))
        for path, leaf in leaves.items():
            unpack_array(leaf, path)  # every leaf is a well-formed one
        packed[n_pms] = sum(len(leaf["b64"]) for leaf in leaves.values())
        residues[n_pms] = len(text) - packed[n_pms]
    small, large = (residues[n] for n in SIZES)
    assert abs(large - small) < 0.10 * small, (
        f"{policy_name}: plain-JSON residue {small} B at {SIZES[0]} PMs vs "
        f"{large} B at {SIZES[1]} PMs — some state section grows with the "
        f"cell as a JSON list; pack it (repro.util.io.pack_array)"
    )
    # The guard is not vacuous: the packed part does follow the cell.
    assert packed[SIZES[1]] > 3 * packed[SIZES[0]]


def test_glap_guard_cell_populates_the_gossip_cursors(tmp_path):
    """The GLAP cell above really exercises the per-node aggregation
    state the guard is meant to watch."""
    state = json.loads(_checkpoint_text("GLAP", SIZES[0], tmp_path))["state"]
    gossip = state["policy"]["gossip"]
    for key in ("rotation_nodes", "next_partition", "token_nodes", "tokens", "token_round"):
        assert unpack_array(gossip[key], key).shape == (SIZES[0],), key
    assert unpack_array(gossip["last_shipped"], "last_shipped").shape == (SIZES[0], 4)
