"""Sharded multi-process federation simulation.

Partitions the data centre's PMs (and VMs) into ``K`` contiguous
shards, each advanced by a dedicated worker process operating on
shared-memory views of the :class:`~repro.datacenter.columnar.ColumnarStore`
columns (:mod:`repro.datacenter.shmem`).  The design splits one round
into the part that shards bit-identically and the part that must stay
global:

* **Phase A (sharded)** — the per-VM monitor ``{c, v}`` piggyback
  update, demand refresh and requested-CPU accrual are element-wise
  NumPy ops, so evaluating them per VM-slice produces bit-for-bit the
  arrays whole-array evaluation would.  Each worker also writes its
  slice of the per-VM CPU-demand product into a shared scratch column.
* **Global reduce (coordinator)** — the per-PM CPU aggregation is a
  ``np.bincount`` whose float accumulation order is VM-id order; a
  per-shard partial reduction would re-associate the sums and drift in
  the last bit.  The coordinator therefore performs the *single* global
  bincount between the two worker barriers, replicating
  :meth:`ColumnarStore.advance_round_update`'s exact branch.
* **Phase B (sharded)** — per-PM active/saturated accounting is again
  element-wise over PM slices.
* **Gossip & policy (coordinator)** — the protocol rounds and
  consolidation decisions are inherently sequential in the global node
  permutation; they run unsharded on the coordinator, which is what
  makes a K-shard run bit-identical to K=1 and to the unsharded golden
  digests for *any* K.

Cross-shard federation semantics are layered on top as pure
*accounting* (they never touch a simulation float, preserving the
goldens): every message crossing a shard boundary is batched into its
``(src_shard, dst_shard)`` channel's message set for the round and
applied at the next round boundary in a **fixed, seed-derived delivery
order** — channels sorted by id, the concatenated batch permuted by a
generator seeded with ``derive_seed(root_seed, "shard-delivery/<n>")``
— with the applied order pinned by a chained digest.  Intra- vs
inter-shard migrations get separate WAN-aware cost accounting.  All of
it surfaces through the telemetry registry as ``shard/*`` counters and
rides through checkpoints via :meth:`CrossShardLedger.state_dict`.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import queue as queue_mod
import time
import traceback
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

import numpy as np

from repro.datacenter.columnar import SHARED_COLUMNS
from repro.datacenter.resources import CPU, N_RESOURCES
from repro.datacenter.shmem import (
    ArenaLayout,
    SharedColumnArena,
    attach_views,
    detach_views,
)
from repro.faults.plan import FaultPlan
from repro.obs.profiler import NULL_PROFILER
from repro.util.rng import derive_seed

if TYPE_CHECKING:  # pragma: no cover - import cycle guards
    from repro.datacenter.cluster import DataCenter
    from repro.datacenter.migration import MigrationRecord
    from repro.simulator.engine import Simulation
    from repro.simulator.network import Message

__all__ = [
    "ShardConfig",
    "ShardMap",
    "CrossShardLedger",
    "ShardWorkerPool",
    "ShardPhaseProfile",
    "ShardRuntime",
    "shard_partition_plan",
    "check_shard_invariants",
]

#: Scratch columns the shard protocol adds next to the store's own.
_EXTRA_COLUMNS = ("shard_demands", "shard_vm_prod", "shard_pm_cpu")


@dataclass(frozen=True)
class ShardConfig:
    """How a run is sharded.

    ``workers=False`` runs the identical per-slice kernels inline in the
    coordinator process (no shared memory, no subprocesses) — the
    differential reference for the worker path and the fallback for
    environments where ``multiprocessing`` is unavailable.

    ``wan_factor`` is the extra WAN energy surcharge applied (in the
    ledger's accounting only) to inter-shard migrations, as a fraction
    of the migration's LAN energy cost.
    """

    n_shards: int
    workers: bool = True
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
    the *host PM's* shard); the VM split only balances phase-A work and
    need not align with PM ownership.
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

    def pm_shard(self, pm_id: int) -> int:
        """Owning shard of ``pm_id`` (O(log K))."""
        if not 0 <= pm_id < self.n_pms:
            raise ValueError(f"pm_id {pm_id} out of range [0, {self.n_pms})")
        starts = [b[0] for b in self.pm_bounds]
        # bisect over the starts: last start <= pm_id.
        lo, hi = 0, len(starts) - 1
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if starts[mid] <= pm_id:
                lo = mid
            else:
                hi = mid - 1
        return lo

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


# -- the per-slice kernels (shared by workers and the inline path) -----------
#
# Every operation below is element-wise over the rows of the slice, so
# evaluating it per shard-slice is bit-identical to the whole-array
# evaluation in ColumnarStore.advance_round_update — the op *sequence*
# mirrors that method exactly and must stay in lockstep with it.


def _phase_a_slice(
    cols: Dict[str, np.ndarray], v0: int, v1: int, round_seconds: float
) -> None:
    """Per-VM monitor/demand/SLALM update over VM slice ``[v0, v1)``."""
    sl = slice(v0, v1)
    demands = cols["shard_demands"][sl]
    avg = cols["avg"][sl]
    # {c, v} piggyback:  avg' = (c*avg + d) / (c + 1), same op order as
    # the store (multiply, add, add, divide on the unsafe-cast counts).
    counts = cols["monitor_count"][sl].astype(np.float64)[:, None]
    acc = counts * avg
    np.add(acc, demands, out=acc)
    np.add(counts, 1.0, out=counts)
    np.divide(acc, counts, out=avg)
    cols["cur"][sl] = demands
    cols["monitor_count"][sl] += 1
    # Per-VM absolute CPU demand — written to the shared scratch column
    # so the coordinator can run the single global bincount over it.
    prod = demands[:, CPU] * cols["vm_cpu_mips"][sl]
    cols["shard_vm_prod"][sl] = prod
    cols["vm_cpu_requested"][sl] += prod * round_seconds


def _reduce_pm_cpu(cols: Dict[str, np.ndarray]) -> None:
    """The global per-PM CPU reduction (coordinator only).

    ``np.bincount`` accumulates sequentially in VM-id order; doing it
    once over the whole host column is the store's exact operation —
    per-shard partial sums would re-associate the float additions.
    """
    host = cols["host"]
    prod = cols["shard_vm_prod"]
    n_pms = cols["shard_pm_cpu"].shape[0]
    placed = host >= 0
    if placed.all():
        cols["shard_pm_cpu"][:] = np.bincount(host, weights=prod, minlength=n_pms)
    else:
        cols["shard_pm_cpu"][:] = np.bincount(
            host[placed], weights=prod[placed], minlength=n_pms
        )


def _phase_b_slice(
    cols: Dict[str, np.ndarray], p0: int, p1: int, round_seconds: float
) -> None:
    """Per-PM active/saturated accounting over PM slice ``[p0, p1)``."""
    sl = slice(p0, p1)
    active = cols["pm_active_seconds"][sl]
    saturated_s = cols["pm_saturated_seconds"][sl]
    awake = ~cols["pm_asleep"][sl]
    np.add(active, round_seconds, out=active, where=awake)
    saturated = cols["shard_pm_cpu"][sl] >= cols["pm_cpu_mips"][sl]
    saturated &= awake
    np.add(saturated_s, round_seconds, out=saturated_s, where=saturated)


# -- worker process ----------------------------------------------------------


def _shard_worker_main(
    shard_id: int,
    layout: ArenaLayout,
    vm_range: Tuple[int, int],
    pm_range: Tuple[int, int],
    cmd_queue: Any,
    ack_queue: Any,
    parent_pid: int,
) -> None:
    """Entry point of one shard worker process.

    Polls its command queue with a timeout so an orphaned worker (the
    coordinator was SIGKILLed and could never send ``stop``) notices the
    re-parenting and exits instead of lingering forever.
    """
    views, segments = attach_views(layout)
    v0, v1 = vm_range
    p0, p1 = pm_range
    try:
        while True:
            try:
                cmd = cmd_queue.get(timeout=1.0)
            except queue_mod.Empty:
                if os.getppid() != parent_pid:
                    return  # orphaned — coordinator is gone
                continue
            if cmd[0] == "stop":
                ack_queue.put((shard_id, "ok", None))
                return
            try:
                # Kernel compute time rides back in the ack's detail slot
                # so the coordinator can split per-shard compute from
                # barrier wait.  Clock reads never touch the RNG, so the
                # measurement cannot perturb the simulation.
                t0 = time.perf_counter()
                if cmd[0] == "phase_a":
                    _phase_a_slice(views, v0, v1, cmd[1])
                elif cmd[0] == "phase_b":
                    _phase_b_slice(views, p0, p1, cmd[1])
                else:
                    raise ValueError(f"unknown shard command {cmd[0]!r}")
                ack_queue.put((shard_id, "ok", time.perf_counter() - t0))
            except Exception:
                ack_queue.put((shard_id, "error", traceback.format_exc()))
    finally:
        detach_views(segments)


class ShardWorkerPool:
    """One worker process per shard, command/ack queues, barrier steps.

    Each :meth:`run_phase` call is a full barrier: the phase command is
    broadcast to every worker and the call returns only when all K acks
    arrive (or any worker reports an error).  Queue hand-offs provide
    the happens-before edges that make the shared-memory writes of one
    phase visible to the next.
    """

    def __init__(self, shard_map: ShardMap, layout: ArenaLayout) -> None:
        method = "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
        ctx = multiprocessing.get_context(method)
        self._cmd_queues = [ctx.Queue() for _ in range(shard_map.n_shards)]
        self._ack_queue = ctx.Queue()
        self._stopped = False
        self._procs = [
            ctx.Process(
                target=_shard_worker_main,
                args=(
                    s,
                    layout,
                    shard_map.vm_bounds[s],
                    shard_map.pm_bounds[s],
                    self._cmd_queues[s],
                    self._ack_queue,
                    os.getpid(),
                ),
                daemon=True,
                name=f"glap-shard-{s}",
            )
            for s in range(shard_map.n_shards)
        ]
        for p in self._procs:
            p.start()

    @property
    def n_workers(self) -> int:
        return len(self._procs)

    def run_phase(
        self, name: str, round_seconds: float, timeout: float = 120.0
    ) -> Dict[int, float]:
        """Broadcast one phase command and barrier on all acks.

        Returns the per-shard kernel compute seconds reported in the
        acks — the raw material for the compute-vs-barrier-wait split
        in :class:`ShardPhaseProfile`.
        """
        if self._stopped:
            raise RuntimeError("worker pool is stopped")
        for q in self._cmd_queues:
            q.put((name, round_seconds))
        errors: List[str] = []
        compute: Dict[int, float] = {}
        for _ in range(len(self._procs)):
            try:
                shard_id, status, detail = self._ack_queue.get(timeout=timeout)
            except queue_mod.Empty:
                self.stop()
                raise RuntimeError(
                    f"shard phase {name!r} timed out after {timeout}s "
                    "waiting for worker acks"
                ) from None
            if status != "ok":
                errors.append(f"shard {shard_id}:\n{detail}")
            elif detail is not None:
                compute[shard_id] = float(detail)
        if errors:
            self.stop()
            raise RuntimeError(
                f"shard phase {name!r} failed in {len(errors)} worker(s):\n"
                + "\n".join(errors)
            )
        return compute

    def stop(self, timeout: float = 10.0) -> None:
        """Stop and join every worker (idempotent; terminates stragglers)."""
        if self._stopped:
            return
        self._stopped = True
        for q in self._cmd_queues:
            try:
                q.put(("stop",))
            except Exception:  # pragma: no cover - queue already broken
                pass
        for p in self._procs:
            p.join(timeout=timeout)
            if p.is_alive():  # pragma: no cover - hung worker backstop
                p.terminate()
                p.join(timeout=5.0)
        for q in [*self._cmd_queues, self._ack_queue]:
            q.cancel_join_thread()
            q.close()


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

    Pure accounting: hangs off :attr:`Network.observer` and an
    incremental scan of the migration log, never mutates simulation
    state and never draws from the run's shared RNG streams — which is
    why enabling it cannot perturb the golden digests.

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

    def __post_init__(self) -> None:
        self._pm_starts = np.asarray(
            [b[0] for b in self.shard_map.pm_bounds], dtype=np.int64
        )

    # -- classification ------------------------------------------------------

    def shard_of_pm(self, pm_id: int) -> int:
        """Owning shard of a PM id (vectorised-friendly searchsorted)."""
        return int(np.searchsorted(self._pm_starts, pm_id, side="right")) - 1

    def observe(self, msg: "Message", dropped: bool) -> None:
        """Network observer hook: classify one delivery attempt."""
        src_shard = self.shard_of_pm(msg.src)
        # Broadcasts/adverts (dst < 0) have no receiver; they stay local
        # to the sender's shard for accounting purposes.
        dst_shard = src_shard if msg.dst < 0 else self.shard_of_pm(msg.dst)
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
        for record in migrations[self._mig_cursor :]:
            if self.shard_of_pm(record.src_pm) == self.shard_of_pm(record.dst_pm):
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
            "pending": [
                [m.src_shard, m.dst_shard, m.kind, m.size_bytes, m.dropped]
                for m in self._pending
            ],
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
        self._pending = [
            _PendingMessage(int(s), int(d), str(kind), int(size), bool(dropped))
            for s, d, kind, size, dropped in state["pending"]
        ]


# -- per-shard phase profiling -----------------------------------------------


class ShardPhaseProfile:
    """Cumulative compute-vs-barrier-wait accounting per shard per phase.

    The coordinator measures each phase's barrier wall time; every
    worker reports its kernel compute seconds in its ack.  The gap
    ``wall - compute`` is that shard's barrier wait — time it spent
    idle while a slower sibling finished — which is exactly the load
    skew an operator wants to see on a live federation run.  All of it
    is clock arithmetic, never RNG, so the accounting cannot perturb
    the simulation.

    In inline mode (no workers) the coordinator runs the slices
    serially and times each one; "wall" is the sum of the slice times,
    so the wait column then reads as "time the round spent on *other*
    shards' slices" — the same skew signal, serialised.
    """

    def __init__(self, n_shards: int) -> None:
        self.n_shards = int(n_shards)
        #: phase name -> {"rounds", "wall_s", "compute_s"[K], "wait_s"[K]}
        self.phases: Dict[str, Dict[str, Any]] = {}

    def record(self, name: str, wall_s: float, compute: Dict[int, float]) -> None:
        """Fold one barrier's measurements in."""
        entry = self.phases.get(name)
        if entry is None:
            entry = self.phases[name] = {
                "rounds": 0,
                "wall_s": 0.0,
                "compute_s": [0.0] * self.n_shards,
                "wait_s": [0.0] * self.n_shards,
            }
        entry["rounds"] += 1
        entry["wall_s"] += wall_s
        for s in range(self.n_shards):
            c = float(compute.get(s, 0.0))
            entry["compute_s"][s] += c
            entry["wait_s"][s] += max(0.0, wall_s - c)

    def per_shard_compute_s(self) -> List[float]:
        """Total kernel compute per shard, summed over phases."""
        totals = [0.0] * self.n_shards
        for entry in self.phases.values():
            for s in range(self.n_shards):
                totals[s] += entry["compute_s"][s]
        return totals

    def imbalance(self) -> float:
        """``max/mean`` of per-shard cumulative compute (1.0 = balanced).

        Returns 1.0 before any phase has run — the neutral value, so a
        heartbeat tick emitted before the first barrier is well-formed.
        """
        totals = self.per_shard_compute_s()
        mean = sum(totals) / len(totals) if totals else 0.0
        if mean <= 0.0:
            return 1.0
        return max(totals) / mean

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe snapshot (heartbeat / post-mortem consumers)."""
        return {
            "n_shards": self.n_shards,
            "phase_max_over_mean": self.imbalance(),
            "phases": {
                name: {
                    "rounds": entry["rounds"],
                    "wall_s": entry["wall_s"],
                    "compute_s": list(entry["compute_s"]),
                    "wait_s": list(entry["wait_s"]),
                }
                for name, entry in self.phases.items()
            },
        }

    def merge_into_profiler(self, profiler: Any) -> None:
        """Fold per-shard compute/wait into a :class:`PhaseProfiler`.

        The barrier wall time is already recorded live (the runtime
        opens ``shard/phase_*`` spans inside ``advance_round``); here
        the external, per-worker measurements join the tree under those
        spans via ``profiler.add`` — so the bench summary's timings
        section carries the full split without touching
        ``top_level_s``.
        """
        if not getattr(profiler, "enabled", False):
            return
        for name, entry in self.phases.items():
            parent = f"shard/{name}"
            for s in range(self.n_shards):
                profiler.add(
                    f"{parent}/s{s}/compute",
                    entry["compute_s"][s],
                    calls=entry["rounds"],
                    parent=parent,
                )
                profiler.add(
                    f"{parent}/s{s}/wait",
                    entry["wait_s"][s],
                    calls=entry["rounds"],
                    parent=parent,
                )


# -- the runtime -------------------------------------------------------------


class ShardRuntime:
    """Ties the shard map, arena, worker pool and ledger to one run.

    Lifecycle: construct before the :class:`DataCenter` (so
    :meth:`allocator` can back the store's columns), :meth:`install`
    after the simulation exists, :meth:`shutdown` when the run ends
    (idempotent; ``run_policy`` does it in a ``finally``).
    """

    def __init__(
        self,
        config: ShardConfig,
        n_pms: int,
        n_vms: int,
        root_seed: int,
        arena_prefix: Optional[str] = None,
    ) -> None:
        self.config = config
        self.map = ShardMap.build(n_pms, n_vms, config.n_shards)
        self.ledger = CrossShardLedger(
            self.map, root_seed, wan_factor=config.wan_factor
        )
        self.arena: Optional[SharedColumnArena] = (
            SharedColumnArena(arena_prefix) if config.workers else None
        )
        self.profile = ShardPhaseProfile(config.n_shards)
        self._allocated: set = set()
        self._pool: Optional[ShardWorkerPool] = None
        self._cols: Optional[Dict[str, np.ndarray]] = None
        self._dc: Optional["DataCenter"] = None
        self._sim: Optional["Simulation"] = None
        self._down = False

    # -- construction hooks --------------------------------------------------

    def allocator(self, name: str, shape: Tuple[int, ...], dtype: np.dtype) -> np.ndarray:
        """Column allocator for :class:`ColumnarStore` (shared when
        workers are enabled, plain zeros inline)."""
        self._allocated.add(name)
        if self.arena is not None:
            return self.arena.allocate(name, shape, dtype)
        return np.zeros(shape, dtype=dtype)

    def install(self, dc: "DataCenter", sim: "Simulation") -> None:
        """Wire the runtime into a built simulation.

        Installs the advance driver and the network observer, allocates
        the shard scratch columns, and (workers mode) starts the pool —
        workers attach to the arena and idle until the first barrier.
        """
        store = dc.store
        if store is None:
            raise RuntimeError("sharding requires the columnar backend")
        if self.arena is not None:
            missing = [c for c in SHARED_COLUMNS if c not in self._allocated]
            if missing:
                raise RuntimeError(
                    "store columns not arena-backed (DataCenter was built "
                    f"without this runtime's allocator): missing {missing}"
                )
        n_pms, n_vms = self.map.n_pms, self.map.n_vms
        if (store.n_pms, store.n_vms) != (n_pms, n_vms):
            raise ValueError(
                f"shard map is for ({n_pms} PMs, {n_vms} VMs); store has "
                f"({store.n_pms}, {store.n_vms})"
            )
        cols: Dict[str, np.ndarray] = {
            name: getattr(store, name) for name in SHARED_COLUMNS
        }
        cols["shard_demands"] = self.allocator(
            "shard_demands", (n_vms, N_RESOURCES), np.dtype(np.float64)
        )
        cols["shard_vm_prod"] = self.allocator(
            "shard_vm_prod", (n_vms,), np.dtype(np.float64)
        )
        cols["shard_pm_cpu"] = self.allocator(
            "shard_pm_cpu", (n_pms,), np.dtype(np.float64)
        )
        self._cols = cols
        if self.arena is not None:
            self._pool = ShardWorkerPool(self.map, self.arena.layout())
        dc.advance_driver = self._drive
        sim.network.observer = self.ledger.observe
        self._dc = dc
        self._sim = sim

    # -- the per-round driver ------------------------------------------------

    def _drive(self, demands: np.ndarray, round_seconds: float) -> None:
        """Replacement for ``ColumnarStore.advance_round_update``.

        Runs at the top of every round: first settles the *previous*
        round's cross-shard ledger (migration scan + ordered batch
        application), then executes phase A (worker barrier), the global
        reduce, and phase B (worker barrier).  Each barrier is measured
        — wall time by the coordinator, kernel compute per worker ack —
        and folded into :attr:`profile`; with a live profiler the
        ``shard/phase_*`` spans also nest under ``advance_round``.
        """
        assert self._cols is not None and self._dc is not None
        self.ledger.scan_migrations(self._dc.migrations)
        self.ledger.flush()
        self._cols["shard_demands"][:] = demands
        self._run_sharded_phase("phase_a", round_seconds)
        _reduce_pm_cpu(self._cols)
        self._run_sharded_phase("phase_b", round_seconds)
        # Phase A rewrote cur/avg behind the store's back.
        assert self._dc.store is not None
        self._dc.store.invalidate_planes()

    def _run_sharded_phase(self, name: str, round_seconds: float) -> None:
        """One barrier phase, measured (worker pool or inline slices)."""
        assert self._cols is not None
        cols = self._cols
        prof = getattr(self._sim, "profiler", NULL_PROFILER)
        with prof.phase(f"shard/{name}"):
            t0 = time.perf_counter()
            compute: Dict[int, float]
            if self._pool is not None:
                compute = self._pool.run_phase(name, round_seconds)
            else:
                compute = {}
                bounds = (
                    self.map.vm_bounds if name == "phase_a" else self.map.pm_bounds
                )
                kernel = _phase_a_slice if name == "phase_a" else _phase_b_slice
                for s, (lo, hi) in enumerate(bounds):
                    s0 = time.perf_counter()
                    kernel(cols, lo, hi, round_seconds)
                    compute[s] = time.perf_counter() - s0
            self.profile.record(name, time.perf_counter() - t0, compute)

    def phase_imbalance(self) -> float:
        """``max/mean`` per-shard cumulative compute (the heartbeat's
        ``shard/phase_max_over_mean`` gauge; 1.0 until data arrives)."""
        return self.profile.imbalance()

    # -- checkpointing -------------------------------------------------------

    def state_dict(self) -> Dict[str, Any]:
        """The checkpoint's ``sharding`` section."""
        return {
            "n_shards": self.config.n_shards,
            "workers": self.config.workers,
            "wan_factor": self.config.wan_factor,
            "pm_bounds": [list(b) for b in self.map.pm_bounds],
            "vm_bounds": [list(b) for b in self.map.vm_bounds],
            "ledger": self.ledger.state_dict(),
        }

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        self.ledger.load_state_dict(state["ledger"])

    # -- teardown ------------------------------------------------------------

    def shutdown(self) -> None:
        """Settle the final batch, stop workers, release shared memory."""
        if self._down:
            return
        self._down = True
        if self._dc is not None:
            self.ledger.scan_migrations(self._dc.migrations)
            self.ledger.flush()
            self._dc.advance_driver = None
        if self._sim is not None and self._sim.network.observer == self.ledger.observe:
            self._sim.network.observer = None
        if self._pool is not None:
            self._pool.stop()
            self._pool = None
        if self.arena is not None:
            # Unlinking the arena unmaps the store's column views out
            # from under it — any later access would be a segfault, not
            # an exception.  Rebind private copies first so the store
            # (and anything still holding the DataCenter) outlives the
            # shared memory safely.
            if self._dc is not None and self._dc.store is not None:
                store = self._dc.store
                for name in SHARED_COLUMNS:
                    setattr(store, name, np.array(getattr(store, name)))
            self._cols = None
            self.arena.close()


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
    """Per-shard conservation checks plus the federation-wide laws.

    Verifies, per shard: host ids in range, membership lists coherent
    with the host column restricted to the shard's PMs.  Globally: every
    VM is placed on exactly one PM federation-wide (no VM lost or
    duplicated across a shard boundary).  Raises ``AssertionError`` on
    violation; returns per-shard placement counts for callers to
    aggregate.
    """
    if dc.store is None:
        raise RuntimeError("shard invariants require the columnar backend")
    store = dc.store
    host = store.host
    n_pms = store.n_pms
    assert host.shape == (store.n_vms,)
    assert np.all(host >= -1) and np.all(host < n_pms), "host ids out of range"
    member_counts = np.fromiter(
        (len(m) for m in store.members), dtype=np.int64, count=n_pms
    )
    placed = host >= 0
    host_counts = np.bincount(host[placed], minlength=n_pms)
    assert np.array_equal(member_counts, host_counts), (
        "membership lists disagree with the host column"
    )
    # Every member list entry must point back at its PM (no VM counted
    # by two shards).
    seen: set = set()
    for pm_id, members in enumerate(store.members):
        for vm_id in members:
            assert int(host[vm_id]) == pm_id, (
                f"VM {vm_id} in PM {pm_id}'s member list but hosted on "
                f"{int(host[vm_id])}"
            )
            assert vm_id not in seen, f"VM {vm_id} appears on two PMs"
            seen.add(vm_id)
    per_shard = []
    for s, (p0, p1) in enumerate(shard_map.pm_bounds):
        in_shard = placed & (host >= p0) & (host < p1)
        per_shard.append(
            {
                "shard": s,
                "pms": p1 - p0,
                "placed_vms": int(np.count_nonzero(in_shard)),
                "member_sum": int(member_counts[p0:p1].sum()),
            }
        )
        assert per_shard[-1]["placed_vms"] == per_shard[-1]["member_sum"]
    total_placed = int(np.count_nonzero(placed))
    assert sum(p["placed_vms"] for p in per_shard) == total_placed, (
        "per-shard placement counts do not sum to the federation total"
    )
    return {
        "per_shard": per_shard,
        "placed_total": total_placed,
        "unplaced": int(store.n_vms - total_placed),
    }
