"""Federation ledger: in-process cross-shard accounting.

``--shards K`` partitions the data centre's PMs into ``K`` contiguous
shards and *accounts* for the federation that partition implies; it
does not change how the simulation executes.  There is one round-update
implementation (:meth:`ColumnarStore.advance_round_update`) and the
gossip and policy rounds run in the global node permutation, which is
what makes a K-shard run bit-identical to K=1 and to the unsharded
golden digests for *any* K (DESIGN.md §5d).

The ledger only counts, at the moment things happen, on the two
chokepoints every policy goes through: :attr:`Network.observer` (each
message sent or dropped) and :attr:`DataCenter.migration_observer`
(each migration, WAN-priced when it crosses shards).  Its counters are
always current; they surface as ``shard/*`` telemetry and ride through
checkpoints as the plain-JSON ``sharding`` section.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field, fields
from functools import cached_property
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from repro.faults.plan import FaultPlan

if TYPE_CHECKING:  # pragma: no cover - import cycle guards
    from repro.datacenter.migration import MigrationRecord
    from repro.simulator.network import Message

__all__ = [
    "ShardConfig",
    "ShardMap",
    "CrossShardLedger",
    "shard_partition_plan",
]


@dataclass(frozen=True)
class ShardConfig:
    """How a run is sharded.

    ``wan_factor`` is the extra WAN energy surcharge applied (in the
    ledger's accounting only) to inter-shard migrations, as a fraction
    of the migration's LAN energy cost.
    """

    n_shards: int
    wan_factor: float = 0.25

    def __post_init__(self) -> None:
        if self.n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {self.n_shards}")
        if self.wan_factor < 0.0:
            raise ValueError(f"wan_factor must be >= 0, got {self.wan_factor}")


@dataclass(frozen=True)
class ShardMap:
    """Contiguous balanced partition of the PM index space.

    Shard ``s`` owns PMs ``[pm_bounds[s][0], pm_bounds[s][1])``; messages
    and migrations classify by the shards of the PMs at their two ends.
    """

    n_pms: int
    n_shards: int
    pm_bounds: Tuple[Tuple[int, int], ...]

    @staticmethod
    def build(n_pms: int, n_shards: int) -> "ShardMap":
        if n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {n_shards}")
        if n_shards > n_pms:
            raise ValueError(
                f"n_shards ({n_shards}) cannot exceed n_pms ({n_pms})"
            )
        return ShardMap(n_pms, n_shards, _balanced_bounds(n_pms, n_shards))

    @cached_property
    def _pm_starts(self) -> List[int]:
        return [start for start, _ in self.pm_bounds]

    def pm_shard(self, pm_id: int) -> int:
        """Owning shard of ``pm_id``: the last shard start <= ``pm_id``."""
        if not 0 <= pm_id < self.n_pms:
            raise ValueError(f"pm_id {pm_id} out of range [0, {self.n_pms})")
        return bisect_right(self._pm_starts, pm_id) - 1

    def pm_groups(self) -> Tuple[Tuple[int, ...], ...]:
        """Per-shard PM id tuples (the federation partition groups)."""
        return tuple(tuple(range(a, b)) for a, b in self.pm_bounds)


def _balanced_bounds(n: int, k: int) -> Tuple[Tuple[int, int], ...]:
    """Split ``range(n)`` into ``k`` contiguous near-equal intervals."""
    base, rem = divmod(n, k)
    bounds: List[Tuple[int, int]] = []
    start = 0
    for s in range(k):
        stop = start + base + (1 if s < rem else 0)
        bounds.append((start, stop))
        start = stop
    return tuple(bounds)


# -- cross-shard ledger ------------------------------------------------------


@dataclass
class CrossShardLedger:
    """Cross-shard message & migration accounting.

    Pure accounting: the runner installs :meth:`observe` as
    :attr:`Network.observer` and :meth:`observe_migration` as
    :attr:`DataCenter.migration_observer`.  Neither mutates simulation
    state or draws from an RNG stream — which is why enabling the ledger
    cannot perturb the golden digests.
    """

    shard_map: ShardMap
    wan_factor: float = 0.25

    msgs_intra: int = 0
    msgs_inter: int = 0
    bytes_intra: int = 0
    bytes_inter: int = 0
    dropped_intra: int = 0
    dropped_inter: int = 0
    migrations_intra: int = 0
    migrations_inter: int = 0
    mig_energy_intra_j: float = 0.0
    mig_energy_inter_j: float = 0.0
    wan_extra_energy_j: float = 0.0

    _channel_counts: Dict[Tuple[int, int], int] = field(default_factory=dict)

    @classmethod
    def for_run(cls, config: ShardConfig, n_pms: int) -> "CrossShardLedger":
        """The ledger of one run: ``config``'s partition of the cell."""
        return cls(ShardMap.build(n_pms, config.n_shards), config.wan_factor)

    # -- classification ------------------------------------------------------

    def observe(self, msg: "Message", dropped: bool) -> None:
        """Network observer hook: classify one message, sent or dropped."""
        pm_shard = self.shard_map.pm_shard
        src_shard = pm_shard(msg.src)
        # Broadcasts/adverts (dst < 0) have no receiver; they stay local
        # to the sender's shard for accounting purposes.
        dst_shard = src_shard if msg.dst < 0 else pm_shard(msg.dst)
        if src_shard == dst_shard:
            self.msgs_intra += 1
            self.bytes_intra += msg.size_bytes
            if dropped:
                self.dropped_intra += 1
            return
        self.msgs_inter += 1
        self.bytes_inter += msg.size_bytes
        if dropped:
            self.dropped_inter += 1
        channel = (src_shard, dst_shard)
        self._channel_counts[channel] = self._channel_counts.get(channel, 0) + 1

    def observe_migration(self, record: "MigrationRecord") -> None:
        """Data-centre migration hook: classify one logged migration.

        Intra-shard moves cost their recorded LAN energy; inter-shard
        (federation/WAN) moves additionally accrue
        ``energy_j * wan_factor`` into :attr:`wan_extra_energy_j`.
        """
        pm_shard = self.shard_map.pm_shard
        if pm_shard(record.src_pm) == pm_shard(record.dst_pm):
            self.migrations_intra += 1
            self.mig_energy_intra_j += record.energy_j
        else:
            self.migrations_inter += 1
            self.mig_energy_inter_j += record.energy_j
            self.wan_extra_energy_j += record.energy_j * self.wan_factor

    # -- telemetry -----------------------------------------------------------

    def telemetry_counters(self) -> Dict[str, float]:
        """Cumulative ``shard/*`` counters for the telemetry registry."""
        counters = {name: float(getattr(self, name)) for name in _COUNTERS}
        for (src, dst), n in self._channel_counts.items():
            counters[f"channel/{src}-{dst}"] = float(n)
        return counters

    # -- checkpointing -------------------------------------------------------

    def checkpoint_section(self) -> Dict[str, Any]:
        """The checkpoint's ``sharding`` section: the partition's
        parameters and the ledger's counters, all plain JSON."""
        ledger: Dict[str, Any] = {name: getattr(self, name) for name in _COUNTERS}
        ledger["channels"] = {
            f"{s}-{d}": n for (s, d), n in self._channel_counts.items()
        }
        return {
            "n_shards": self.shard_map.n_shards,
            "wan_factor": self.wan_factor,
            "ledger": ledger,
        }

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        """Reload the counters from a section's ``ledger`` entry."""
        for name, kind in _COUNTERS.items():
            setattr(self, name, kind(state[name]))
        self._channel_counts = {
            tuple(map(int, key.split("-"))): int(n)  # type: ignore[misc]
            for key, n in state["channels"].items()
        }


#: The ledger's counters, each with the type of its default (int tallies,
#: float joules) that a restore converts it back to.
_COUNTERS = {
    f.name: type(f.default)
    for f in fields(CrossShardLedger)
    if f.name not in ("shard_map", "wan_factor", "_channel_counts")
}


def shard_partition_plan(
    shard_map: ShardMap,
    *,
    start_round: int = 0,
    end_round: Optional[int] = None,
) -> FaultPlan:
    """A network partition exactly along the shard boundaries.

    Models a federation split: every shard keeps gossiping internally
    but no message crosses a shard boundary for the window — the
    fault-injection counterpart of the ledger's channel accounting
    (under this plan every inter-shard message is dropped, so
    ``shard/dropped_inter == shard/msgs_inter`` over the window).
    """
    return FaultPlan.partition(
        shard_map.pm_groups(), start_round=start_round, end_round=end_round
    )
