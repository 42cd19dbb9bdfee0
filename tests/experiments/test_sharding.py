"""Sharded federation runs are bit-identical to unsharded runs.

The determinism contract, pinned four ways on the 40-PM golden cell
(chaos plan + full instrumentation, same fixture as
``tests/golden/test_golden_columnar_cell.py``):

* K ∈ {1, 2, 4} shards all land on the pinned golden digest
  bit-for-bit;
* the per-round telemetry series and totals match an unsharded run
  exactly, except the ``shard/*`` namespace (which describes the
  partitioning itself);
* the JSONL event trace is the *same sequence* of events;
* the ledger's final counters at K=1 and K=4 equal literals captured
  before the shard worker layer was deleted, and the ``shard/*``
  telemetry lands in the round each message and migration happened.

Plus unit coverage of :class:`ShardMap` and of the ledger's two hooks.
"""

import json
from dataclasses import replace

import pytest

from repro.datacenter.migration import MigrationRecord
from repro.experiments.runner import make_policy, run_policy
from repro.experiments.sharding import (
    CrossShardLedger,
    ShardConfig,
    ShardMap,
    shard_partition_plan,
)
from tests.golden.test_golden_columnar_cell import (
    FIXTURE_PATH,
    SCENARIO,
    _instrumented_run,
    sharded,
)
from tests.golden.test_golden_runs import digest_run


# -- ShardMap ---------------------------------------------------------------


def test_balanced_bounds_cover_everything_contiguously():
    m = ShardMap.build(n_pms=10, n_shards=3)
    assert m.pm_bounds == ((0, 4), (4, 7), (7, 10))
    # Sizes differ by at most one.
    pm_sizes = [b - a for a, b in m.pm_bounds]
    assert max(pm_sizes) - min(pm_sizes) <= 1
    assert sum(pm_sizes) == 10


@pytest.mark.parametrize("n_pms,n_shards", [(1, 1), (7, 7), (40, 4), (100, 3)])
def test_pm_shard_agrees_with_bounds(n_pms, n_shards):
    m = ShardMap.build(n_pms=n_pms, n_shards=n_shards)
    for pm in range(n_pms):
        s = m.pm_shard(pm)
        lo, hi = m.pm_bounds[s]
        assert lo <= pm < hi


def test_pm_groups_partition_the_pm_space():
    m = ShardMap.build(n_pms=13, n_shards=4)
    flat = [pm for group in m.pm_groups() for pm in group]
    assert flat == list(range(13))


def test_shard_map_rejects_bad_counts():
    with pytest.raises(ValueError):
        ShardMap.build(n_pms=4, n_shards=5)
    with pytest.raises(ValueError):
        ShardMap.build(n_pms=4, n_shards=0)
    with pytest.raises(ValueError):
        ShardConfig(n_shards=0)
    with pytest.raises(ValueError):
        ShardConfig(n_shards=2, wan_factor=-0.1)
    m = ShardMap.build(n_pms=4, n_shards=2)
    with pytest.raises(ValueError):
        m.pm_shard(4)


def test_shard_partition_plan_groups_follow_boundaries():
    m = ShardMap.build(n_pms=9, n_shards=3)
    plan = shard_partition_plan(m, start_round=2, end_round=5)
    assert "partition" in plan.describe()


# -- golden-cell bit-identity ----------------------------------------------


def _golden_digest():
    assert FIXTURE_PATH.exists(), (
        "no 40-PM fixture checked in; run pytest tests/golden --update-golden"
    )
    return json.loads(FIXTURE_PATH.read_text())["GLAP/chaos40"]


@pytest.mark.parametrize("n_shards", [1, 2, 4], ids=["k1", "k2", "k4"])
def test_sharded_golden_cell_is_bit_identical(n_shards, tmp_path):
    result, telemetry, _ = _instrumented_run(
        "GLAP", tmp_path, scenario=sharded(n_shards)
    )
    assert digest_run(result) == _golden_digest()
    # The ledger really observed the run.
    totals = telemetry.totals()
    assert totals["shard/msgs_intra"] + totals["shard/msgs_inter"] > 0
    if n_shards == 1:
        assert totals["shard/msgs_inter"] == 0


def test_sharded_telemetry_and_trace_match_unsharded(tmp_path):
    plain_dir = tmp_path / "plain"
    shard_dir = tmp_path / "sharded"
    plain_dir.mkdir()
    shard_dir.mkdir()
    _, plain_tel, _ = _instrumented_run("GLAP", plain_dir)
    _, shard_tel, _ = _instrumented_run("GLAP", shard_dir, scenario=sharded(4))

    def non_shard(totals):
        return {k: v for k, v in totals.items() if not k.startswith("shard/")}

    assert non_shard(shard_tel.totals()) == non_shard(plain_tel.totals())
    assert shard_tel.rounds == plain_tel.rounds
    # Gauges are untouched by sharding entirely.
    assert shard_tel.gauges == plain_tel.gauges
    # The event trace is the same *sequence*, not merely the same multiset.
    plain_events = (plain_dir / "trace.jsonl").read_text().splitlines()
    shard_events = (shard_dir / "trace.jsonl").read_text().splitlines()
    assert shard_events == plain_events


def test_message_conservation_across_shard_counts(tmp_path):
    """Intra + inter totals are invariant in K — no message lost or
    double-counted at shard boundaries."""
    totals = {}
    for k in (1, 2, 4):
        d = tmp_path / f"k{k}"
        d.mkdir()
        _, tel, _ = _instrumented_run("GLAP", d, scenario=sharded(k))
        t = tel.totals()
        totals[k] = {
            "msgs": t["shard/msgs_intra"] + t["shard/msgs_inter"],
            "bytes": t["shard/bytes_intra"] + t["shard/bytes_inter"],
            "dropped": t["shard/dropped_intra"] + t["shard/dropped_inter"],
            "migrations": t["shard/migrations_intra"] + t["shard/migrations_inter"],
            "mig_energy": t["shard/mig_energy_intra_j"]
            + t["shard/mig_energy_inter_j"],
        }
    for k in (2, 4):
        # Integer tallies are exactly invariant in K; the energy total is
        # split across two float accumulators whose grouping depends on K,
        # so the re-summed value may differ in the last ulp.
        for key in ("msgs", "bytes", "dropped", "migrations"):
            assert totals[k][key] == totals[1][key]
        assert totals[k]["mig_energy"] == pytest.approx(
            totals[1]["mig_energy"], rel=1e-12
        )


# -- final ledger, pinned against the pre-deletion implementation ---------


def ledger_of(sim) -> CrossShardLedger:
    """The run's ledger: the runner installs its ``observe`` as the
    network observer, which is the only handle a round hook gets."""
    return sim.network.observer.__self__


class GrabLedger:
    """Round hook that keeps the run's ledger for inspection afterwards."""

    ledger = None

    def __call__(self, r, dc, sim):
        self.ledger = ledger_of(sim)


#: Final ledger counters of the golden cell (40 PMs, ratio 3, seed 2016,
#: chaos plan), captured at commit a414615 — the last one whose ledger
#: was settled inside the shard runtime's advance driver and ``shutdown()``.
_PINNED_LEDGER = {
    1: {
        "msgs_intra": 2160.0,
        "msgs_inter": 0.0,
        "bytes_intra": 2083244.0,
        "bytes_inter": 0.0,
        "dropped_intra": 492.0,
        "dropped_inter": 0.0,
        "migrations_intra": 111.0,
        "migrations_inter": 0.0,
        "mig_energy_intra_j": 1287.8889648124332,
        "mig_energy_inter_j": 0.0,
        "wan_extra_energy_j": 0.0,
    },
    4: {
        "msgs_intra": 494.0,
        "msgs_inter": 1666.0,
        "bytes_intra": 581356.0,
        "bytes_inter": 1501888.0,
        "dropped_intra": 122.0,
        "dropped_inter": 370.0,
        "migrations_intra": 21.0,
        "migrations_inter": 90.0,
        "mig_energy_intra_j": 245.11660364549985,
        "mig_energy_inter_j": 1042.7723611669335,
        "wan_extra_energy_j": 260.69309029173337,
        "channel/0-1": 176.0,
        "channel/0-2": 152.0,
        "channel/0-3": 194.0,
        "channel/1-0": 176.0,
        "channel/1-2": 112.0,
        "channel/1-3": 123.0,
        "channel/2-0": 152.0,
        "channel/2-1": 112.0,
        "channel/2-3": 76.0,
        "channel/3-0": 194.0,
        "channel/3-1": 123.0,
        "channel/3-2": 76.0,
    },
}


@pytest.mark.parametrize("n_shards", [1, 4], ids=["k1", "k4"])
def test_final_ledger_equals_pre_deletion_literals(n_shards, tmp_path):
    """The final counters are the pinned ones, and the ``shard/*``
    telemetry never lags them: the ledger classifies at its two hooks,
    so the final totals are its own counters and every round's intra +
    inter migrations are that round's accepted GLAP migrations.  (A
    ledger settled at the top of the next round left the last round's 3
    migrations out of the telemetry: 108 vs 111.)"""
    grab = GrabLedger()
    _, telemetry, _ = _instrumented_run(
        "GLAP", tmp_path, scenario=sharded(n_shards), round_hook=grab
    )
    counters = grab.ledger.telemetry_counters()
    assert counters == _PINNED_LEDGER[n_shards]
    shard_totals = {
        key[len("shard/"):]: value
        for key, value in telemetry.totals().items()
        if key.startswith("shard/")
    }
    assert shard_totals == counters
    series = telemetry.series
    per_round = [
        intra + inter
        for intra, inter in zip(
            series["shard/migrations_intra"], series["shard/migrations_inter"]
        )
    ]
    assert per_round == series["glap/migrations_accepted"]


# -- the two hooks ------------------------------------------------------------


class _Msg:
    def __init__(self, src, dst, kind="gossip", size_bytes=100):
        self.src, self.dst, self.kind, self.size_bytes = src, dst, kind, size_bytes


def _filled_ledger():
    """Six messages and three migrations over PMs 0-9 in three shards
    (0-3, 4-6, 7-9)."""
    ledger = CrossShardLedger(ShardMap.build(n_pms=10, n_shards=3), wan_factor=0.5)
    for src, dst in [(0, 5), (5, 0), (1, 9), (9, 2), (3, 3), (0, -1)]:
        ledger.observe(_Msg(src, dst), dropped=(src == 9))
    for src, dst, energy in [(0, 1, 2.0), (0, 9, 4.0), (8, 4, 8.0)]:
        ledger.observe_migration(
            MigrationRecord(0, 0, src, dst, 1.0, energy, 0.0)
        )
    return ledger


def test_hooks_classify_by_the_shards_of_both_ends():
    ledger = _filled_ledger()
    # Intra-shard and broadcast messages stay off every channel.
    assert (ledger.msgs_intra, ledger.msgs_inter) == (2, 4)
    assert (ledger.bytes_intra, ledger.bytes_inter) == (200, 400)
    assert (ledger.dropped_intra, ledger.dropped_inter) == (0, 1)
    assert ledger._channel_counts == {(0, 1): 1, (1, 0): 1, (0, 2): 1, (2, 0): 1}
    assert (ledger.migrations_intra, ledger.migrations_inter) == (1, 2)
    assert ledger.mig_energy_intra_j == 2.0
    assert ledger.mig_energy_inter_j == 12.0
    assert ledger.wan_extra_energy_j == 6.0


def test_ledger_state_roundtrip_preserves_counters():
    a = _filled_ledger()
    state = json.loads(json.dumps(a.state_dict()))  # plain JSON
    b = CrossShardLedger(ShardMap.build(n_pms=10, n_shards=3), wan_factor=0.5)
    b.load_state_dict(state)
    assert b.telemetry_counters() == a.telemetry_counters()
    assert b.state_dict() == a.state_dict()


def test_run_policy_rejects_more_shards_than_pms():
    with pytest.raises(ValueError):
        run_policy(
            replace(SCENARIO, sharding=ShardConfig(n_shards=SCENARIO.n_pms + 1)),
            make_policy("GLAP"),
            SCENARIO.seed_of(0),
        )
