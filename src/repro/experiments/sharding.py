"""Federation ledger: in-process cross-shard accounting.

``--shards K`` partitions the data centre's PMs into ``K`` contiguous
shards and *accounts* for the federation that partition implies; it
does not change how the simulation executes.  There is one round-update
implementation (:meth:`ColumnarStore.advance_round_update`) and the
gossip and policy rounds run in the global node permutation, which is
what makes a K-shard run bit-identical to K=1 and to the unsharded
golden digests for *any* K (DESIGN.md §5d).

The ledger is pure accounting (it never touches a simulation float,
preserving the goldens): every message crossing a shard boundary is
batched into its ``(src_shard, dst_shard)`` channel's message set for
the round and applied at the next round boundary in a **fixed,
seed-derived delivery order** — channels sorted by id, the concatenated
batch permuted by a generator seeded with
``derive_seed(root_seed, "shard-delivery/<n>")`` — with the applied
order pinned by a chained digest.  Intra- vs inter-shard migrations get
separate WAN-aware cost accounting.  All of it surfaces through the
telemetry registry as ``shard/*`` counters and rides through
checkpoints as the ``sharding`` section
(:meth:`CrossShardLedger.checkpoint_section`).
"""

from __future__ import annotations

import hashlib
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

import numpy as np

from repro.faults.plan import FaultPlan
from repro.simulator.observer import check_datacenter_invariants
from repro.util.io import pack_array, unpack_array
from repro.util.rng import derive_seed

if TYPE_CHECKING:  # pragma: no cover - import cycle guards
    from repro.datacenter.cluster import DataCenter
    from repro.datacenter.migration import MigrationRecord
    from repro.simulator.network import Message

__all__ = [
    "ShardConfig",
    "ShardMap",
    "CrossShardLedger",
    "shard_partition_plan",
    "check_shard_invariants",
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
    """Contiguous balanced partition of PM and VM index spaces.

    Shard ``s`` owns PMs ``[pm_bounds[s][0], pm_bounds[s][1])`` and VMs
    ``[vm_bounds[s][0], vm_bounds[s][1])``.  PM ownership is the
    federation-semantic partition (messages and migrations classify by
    the *host PM's* shard); the VM split is a balanced id-range
    partition recorded for reporting and need not align with PM
    ownership.
    """

    n_pms: int
    n_vms: int
    n_shards: int
    pm_bounds: Tuple[Tuple[int, int], ...]
    vm_bounds: Tuple[Tuple[int, int], ...]

    @staticmethod
    def build(n_pms: int, n_vms: int, n_shards: int) -> "ShardMap":
        if n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {n_shards}")
        if n_shards > n_pms:
            raise ValueError(
                f"n_shards ({n_shards}) cannot exceed n_pms ({n_pms})"
            )
        return ShardMap(
            n_pms=n_pms,
            n_vms=n_vms,
            n_shards=n_shards,
            pm_bounds=_balanced_bounds(n_pms, n_shards),
            vm_bounds=_balanced_bounds(n_vms, n_shards),
        )

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

    def shard_sizes(self) -> Tuple[Tuple[int, int], ...]:
        """Per-shard ``(n_pms, n_vms)`` sizes."""
        return tuple(
            (pb[1] - pb[0], vb[1] - vb[0])
            for pb, vb in zip(self.pm_bounds, self.vm_bounds)
        )


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
class _PendingMessage:
    """One buffered inter-shard message awaiting ordered delivery."""

    src_shard: int
    dst_shard: int
    kind: str
    size_bytes: int
    dropped: bool

    def key(self) -> str:
        return (
            f"{self.src_shard}>{self.dst_shard}:{self.kind}"
            f":{self.size_bytes}:{int(self.dropped)}"
        )


@dataclass
class CrossShardLedger:
    """Deterministic cross-shard message & migration accounting.

    Pure accounting: hangs off :attr:`Network.observer` (the runner
    installs :meth:`observe` there) and an incremental scan of the
    migration log, never mutates simulation state and never draws from
    the run's shared RNG streams — which is why enabling it cannot
    perturb the golden digests.

    Inter-shard messages are buffered into per-channel message sets and
    *applied* (counted into ``deliveries``, folded into the chained
    delivery digest) at each round boundary, in the fixed seed-derived
    order described in the module docstring.  The chained digest makes
    the applied order itself testable: any reordering anywhere in the
    run's history changes the final hex.
    """

    shard_map: ShardMap
    root_seed: int
    wan_factor: float = 0.25

    msgs_intra: int = 0
    msgs_inter: int = 0
    bytes_intra: int = 0
    bytes_inter: int = 0
    dropped_intra: int = 0
    dropped_inter: int = 0
    deliveries: int = 0
    flushes: int = 0
    migrations_intra: int = 0
    migrations_inter: int = 0
    mig_energy_intra_j: float = 0.0
    mig_energy_inter_j: float = 0.0
    wan_extra_energy_j: float = 0.0

    _channel_counts: Dict[Tuple[int, int], int] = field(default_factory=dict)
    _pending: List[_PendingMessage] = field(default_factory=list)
    _mig_cursor: int = 0
    _digest_hex: str = hashlib.sha256(b"glap-shard-ledger").hexdigest()

    @classmethod
    def for_run(
        cls, config: ShardConfig, n_pms: int, n_vms: int, root_seed: int
    ) -> "CrossShardLedger":
        """The ledger of one run: ``config``'s partition of the cell."""
        return cls(
            ShardMap.build(n_pms, n_vms, config.n_shards),
            root_seed,
            wan_factor=config.wan_factor,
        )

    # -- classification ------------------------------------------------------

    def observe(self, msg: "Message", dropped: bool) -> None:
        """Network observer hook: classify one delivery attempt."""
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
        self._pending.append(
            _PendingMessage(src_shard, dst_shard, msg.kind, msg.size_bytes, dropped)
        )

    def scan_migrations(self, migrations: List["MigrationRecord"]) -> None:
        """Classify migration records appended since the last scan.

        Intra-shard moves cost their recorded LAN energy; inter-shard
        (federation/WAN) moves additionally accrue
        ``energy_j * wan_factor`` into :attr:`wan_extra_energy_j`.
        """
        pm_shard = self.shard_map.pm_shard
        for record in migrations[self._mig_cursor :]:
            if pm_shard(record.src_pm) == pm_shard(record.dst_pm):
                self.migrations_intra += 1
                self.mig_energy_intra_j += record.energy_j
            else:
                self.migrations_inter += 1
                self.mig_energy_inter_j += record.energy_j
                self.wan_extra_energy_j += record.energy_j * self.wan_factor
        self._mig_cursor = len(migrations)

    # -- ordered application -------------------------------------------------

    def flush(self) -> List[str]:
        """Apply the pending inter-shard batch in seed-derived order.

        Channels are ordered by ``(src_shard, dst_shard)`` with arrival
        order preserved inside each channel, then the concatenated batch
        is permuted by a generator seeded from
        ``derive_seed(root_seed, "shard-delivery/<flush index>")`` —
        deterministic for a given root seed and flush cadence, and
        independent of every simulation RNG stream.  Returns the applied
        message keys in delivery order (also folded into the digest).
        """
        index = self.flushes
        self.flushes += 1
        if not self._pending:
            return []
        batch = sorted(
            self._pending, key=lambda m: (m.src_shard, m.dst_shard)
        )  # stable: arrival order preserved within each channel
        self._pending.clear()
        order = np.random.default_rng(
            derive_seed(self.root_seed, f"shard-delivery/{index}")
        ).permutation(len(batch))
        applied = [batch[i].key() for i in order]
        self.deliveries += len(applied)
        payload = f"flush {index}\n" + "\n".join(applied)
        self._digest_hex = hashlib.sha256(
            (self._digest_hex + payload).encode("utf-8")
        ).hexdigest()
        return applied

    def settle(self, migrations: List["MigrationRecord"]) -> None:
        """Close one round of the ledger: scan new migrations, then apply
        the pending batch.

        The runner calls this immediately before every
        ``dc.advance_round()`` and once at run end; that cadence fixes
        the flush indices, hence the delivery permutations and digest.
        """
        self.scan_migrations(migrations)
        self.flush()

    @property
    def delivery_digest(self) -> str:
        """Chained sha256 over every applied batch, in delivery order."""
        return self._digest_hex

    @property
    def pending_count(self) -> int:
        return len(self._pending)

    # -- telemetry -----------------------------------------------------------

    def telemetry_counters(self) -> Dict[str, float]:
        """Cumulative ``shard/*`` counters for the telemetry registry."""
        counters: Dict[str, float] = {
            "msgs_intra": float(self.msgs_intra),
            "msgs_inter": float(self.msgs_inter),
            "bytes_intra": float(self.bytes_intra),
            "bytes_inter": float(self.bytes_inter),
            "dropped_intra": float(self.dropped_intra),
            "dropped_inter": float(self.dropped_inter),
            "deliveries": float(self.deliveries),
            "migrations_intra": float(self.migrations_intra),
            "migrations_inter": float(self.migrations_inter),
            "mig_energy_intra_j": float(self.mig_energy_intra_j),
            "mig_energy_inter_j": float(self.mig_energy_inter_j),
            "wan_extra_energy_j": float(self.wan_extra_energy_j),
        }
        for (src, dst), n in self._channel_counts.items():
            counters[f"channel/{src}-{dst}"] = float(n)
        return counters

    # -- checkpointing -------------------------------------------------------

    def state_dict(self) -> Dict[str, Any]:
        """JSON-safe snapshot, including the *unflushed* pending batch.

        The pending buffer is serialised rather than flushed so a
        resumed run applies it at the same round boundary — with the
        same flush index, hence the same permutation — as the
        uninterrupted run would have.
        """
        pending = self._pending
        kinds = sorted({m.kind for m in pending})
        return {
            "msgs_intra": self.msgs_intra,
            "msgs_inter": self.msgs_inter,
            "bytes_intra": self.bytes_intra,
            "bytes_inter": self.bytes_inter,
            "dropped_intra": self.dropped_intra,
            "dropped_inter": self.dropped_inter,
            "deliveries": self.deliveries,
            "flushes": self.flushes,
            "migrations_intra": self.migrations_intra,
            "migrations_inter": self.migrations_inter,
            "mig_energy_intra_j": self.mig_energy_intra_j,
            "mig_energy_inter_j": self.mig_energy_inter_j,
            "wan_extra_energy_j": self.wan_extra_energy_j,
            "mig_cursor": self._mig_cursor,
            "digest": self._digest_hex,
            "channels": {
                f"{s}-{d}": n for (s, d), n in self._channel_counts.items()
            },
            # One round's inter-shard messages: O(n_pms), so packed
            # columns; ``kind`` is a code into the ``kinds`` list.
            "pending": {
                "kinds": kinds,
                "src": pack_array([m.src_shard for m in pending], "<i4"),
                "dst": pack_array([m.dst_shard for m in pending], "<i4"),
                "kind": pack_array([kinds.index(m.kind) for m in pending], "<u2"),
                "size": pack_array([m.size_bytes for m in pending], "<i8"),
                "dropped": pack_array([m.dropped for m in pending], "?"),
            },
        }

    def checkpoint_section(self) -> Dict[str, Any]:
        """The checkpoint's ``sharding`` section: partition + ledger state."""
        return {
            "n_shards": self.shard_map.n_shards,
            "wan_factor": self.wan_factor,
            "pm_bounds": [list(b) for b in self.shard_map.pm_bounds],
            "vm_bounds": [list(b) for b in self.shard_map.vm_bounds],
            "ledger": self.state_dict(),
        }

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        self.msgs_intra = int(state["msgs_intra"])
        self.msgs_inter = int(state["msgs_inter"])
        self.bytes_intra = int(state["bytes_intra"])
        self.bytes_inter = int(state["bytes_inter"])
        self.dropped_intra = int(state["dropped_intra"])
        self.dropped_inter = int(state["dropped_inter"])
        self.deliveries = int(state["deliveries"])
        self.flushes = int(state["flushes"])
        self.migrations_intra = int(state["migrations_intra"])
        self.migrations_inter = int(state["migrations_inter"])
        self.mig_energy_intra_j = float(state["mig_energy_intra_j"])
        self.mig_energy_inter_j = float(state["mig_energy_inter_j"])
        self.wan_extra_energy_j = float(state["wan_extra_energy_j"])
        self._mig_cursor = int(state["mig_cursor"])
        self._digest_hex = str(state["digest"])
        self._channel_counts = {
            (int(k.split("-")[0]), int(k.split("-")[1])): int(n)
            for k, n in state["channels"].items()
        }
        pending = state["pending"]
        kinds = [str(kind) for kind in pending["kinds"]]
        columns = {"src": "i", "dst": "i", "kind": "u", "size": "i", "dropped": "b"}
        src, dst, kind, size, dropped = (
            unpack_array(pending.get(key), f"sharding/ledger/pending/{key}", kinds_ok).tolist()
            for key, kinds_ok in columns.items()
        )
        self._pending = [
            _PendingMessage(s, d, kinds[k], n, lost)
            for s, d, k, n, lost in zip(src, dst, kind, size, dropped, strict=True)
        ]


# -- fault-plan & invariant helpers ------------------------------------------


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


def check_shard_invariants(dc: "DataCenter", shard_map: ShardMap) -> Dict[str, Any]:
    """The federation-wide conservation laws plus per-shard placement counts.

    :func:`check_datacenter_invariants` covers the global laws (every VM
    placed on exactly one PM, member lists and host back-references
    coherent — so no VM is lost or duplicated across a shard boundary);
    on top, each shard's placed-VM count by the host column must equal
    the sum of its PMs' member-list lengths.  Raises ``AssertionError``
    on violation; returns the per-shard counts for callers to aggregate.
    """
    store = dc.store
    check_datacenter_invariants(dc)
    host = store.host
    member_counts = np.fromiter(
        (len(m) for m in store.members), dtype=np.int64, count=store.n_pms
    )
    bounds = np.asarray(shard_map.pm_bounds, dtype=np.int64)
    # Unplaced VMs (host == -1) sort before every shard start and are
    # dropped by the [1:] below.
    shard_of_vm = np.searchsorted(bounds[:, 0], host, side="right")
    placed_vms = np.bincount(shard_of_vm, minlength=shard_map.n_shards + 1)[1:]
    member_sum = np.add.reduceat(member_counts, bounds[:, 0])
    assert np.array_equal(placed_vms, member_sum), (
        f"per-shard placed VMs {placed_vms.tolist()} disagree with member "
        f"lists {member_sum.tolist()}"
    )
    total_placed = int(placed_vms.sum())
    return {
        "per_shard": [
            {
                "shard": s,
                "pms": int(p1 - p0),
                "placed_vms": int(placed_vms[s]),
                "member_sum": int(member_sum[s]),
            }
            for s, (p0, p1) in enumerate(bounds)
        ],
        "placed_total": total_placed,
        "unplaced": int(store.n_vms - total_placed),
    }
