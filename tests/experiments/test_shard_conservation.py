"""Property tests: cross-shard accounting conserves globally.

For random cell sizes, shard counts and fault plans (message loss,
churn, partitions aligned on shard boundaries), every evaluation round
of a sharded run must satisfy, simultaneously:

* **message conservation** — the ledger's intra + inter tallies equal
  the network's own sent counter (every delivery attempt classified
  exactly once), dropped and bytes likewise;
* **migration conservation** — intra + inter migration counts equal the
  migration log's length (each migration is classified when it
  happens, and GLAP's warm-up never migrates), and the WAN surcharge is
  exactly ``wan_factor`` times the inter-shard migration energy.

Placement (every VM on exactly one PM, so none lost or duplicated
across a shard boundary) is the invariant observer's, every round.
And on top: the run's result digest equals the unsharded run's — the
determinism contract under randomised fault plans, not just the pinned
golden cell.
"""

from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.glap import GlapConfig
from repro.experiments.runner import make_policy, run_policy
from repro.experiments.scenarios import Scenario
from repro.experiments.sharding import ShardConfig, ShardMap, shard_partition_plan
from repro.faults import FaultPlan
from repro.traces.google import GoogleTraceParams
from tests.experiments.test_sharding import ledger_of
from tests.golden.test_golden_runs import digest_run

WAN_FACTOR = 0.5


def _scenario(n_pms: int, ratio: int) -> Scenario:
    return Scenario(
        n_pms=n_pms,
        ratio=ratio,
        rounds=3,
        warmup_rounds=5,
        repetitions=1,
        trace_params=GoogleTraceParams(rounds_per_day=4),
    )


def _fault_plan(shard_map: ShardMap, loss: float, partition: bool, churn: bool):
    plan = FaultPlan.message_loss(loss) if loss > 0 else None
    if partition and shard_map.n_shards > 1:
        part = shard_partition_plan(shard_map, start_round=2, end_round=5)
        plan = part if plan is None else plan.merged(part)
    if churn:
        churn_plan = FaultPlan.churn(0.05, downtime_rounds=2)
        plan = churn_plan if plan is None else plan.merged(churn_plan)
    return plan


class _Conservation:
    """Per-round observer of the run's live ledger."""

    def __init__(self):
        self.rounds_checked = 0

    def __call__(self, r, dc, sim):
        ledger = ledger_of(sim)
        stats = sim.network.stats

        assert ledger.msgs_intra + ledger.msgs_inter == stats.messages_sent
        assert ledger.dropped_intra + ledger.dropped_inter == stats.messages_dropped
        assert ledger.bytes_intra + ledger.bytes_inter == stats.bytes_sent

        classified = ledger.migrations_intra + ledger.migrations_inter
        assert classified == len(dc.migrations)
        assert ledger.wan_extra_energy_j == ledger.mig_energy_inter_j * WAN_FACTOR

        self.rounds_checked += 1


@settings(max_examples=10, deadline=None)
@given(
    n_pms=st.integers(min_value=6, max_value=16),
    ratio=st.integers(min_value=2, max_value=3),
    n_shards=st.integers(min_value=1, max_value=4),
    loss=st.sampled_from([0.0, 0.25]),
    partition=st.booleans(),
    churn=st.booleans(),
)
def test_sharded_run_conserves_and_matches_unsharded(
    n_pms, ratio, n_shards, loss, partition, churn
):
    shard_map = ShardMap.build(n_pms, n_shards)
    # Invariants on: placement and migration pairing, every round.
    scenario = _scenario(n_pms, ratio).with_faults(
        _fault_plan(shard_map, loss, partition, churn)
    )
    policy = lambda: make_policy("GLAP", config=GlapConfig(aggregation_rounds=2))
    observer = _Conservation()

    sharded = run_policy(
        replace(
            scenario, sharding=ShardConfig(n_shards=n_shards, wan_factor=WAN_FACTOR)
        ),
        policy(),
        scenario.seed_of(0),
        round_hook=observer,
    )
    assert observer.rounds_checked == scenario.rounds

    plain = run_policy(scenario, policy(), scenario.seed_of(0))
    assert digest_run(sharded) == digest_run(plain)
