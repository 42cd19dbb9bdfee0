"""Gossip Learning, phase 2: aggregation (paper Algorithm 2).

After local training, PMs hold *different* Q-maps (and PMs that were too
loaded to train hold none).  Every round each PM exchanges Q-state with
one random neighbour; both sides run UPDATE: average the values of pairs
present in both maps, adopt pairs present in only one.  Push-pull
averaging drives all PMs to identical maps — geometrically fast, and
(section IV-C / Theorem 1) the resulting value at each key converges to
a normal distribution around the population mean.

Bandwidth-aware extensions (both off by default, in which case the
exchange is byte-for-byte the paper's full-union-map Algorithm 2):

* **Partitioned exchange** (``n_partitions > 1``): instead of the whole
  union map, each contact ships one *rotating* keyed partition — a
  deterministic hash of (state, action) selects the bucket (cf.
  gossipy's ``PartitionedTMH``/``TorchModelPartition``).  The merge rule
  stays Algorithm 2's UPDATE, restricted to the shipped bucket; the
  gossip-averaging analysis tolerates this partial/asynchronous mixing
  (Mathkar & Borkar, arXiv 1310.7610), it just converges over more
  contacts — at a fraction of the bytes per contact.
* **Token-account flow control** (``token_budget > 0``): each node holds
  a byte-denominated token account refilled every round and charged per
  exchange.  A node that cannot afford the next exchange defers it —
  except, in the spirit of gossipy's ``RandomizedTokenAccount``, it
  still fires with probability ``tokens / cost`` (draining the account)
  so starved nodes keep mixing occasionally instead of going silent.
  The probability draw comes from a dedicated RNG stream, so zero-budget
  configurations consume no randomness and stay bit-identical.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List, Optional

import numpy as np

from repro.core.qlearning import QLearningModel
from repro.core.qtable import QTable
from repro.overlay.sampler import PeerSampler
from repro.simulator.protocol import Protocol
from repro.util.io import pack_array, unpack_array

if TYPE_CHECKING:  # pragma: no cover
    from repro.simulator.engine import Simulation
    from repro.simulator.node import Node

__all__ = ["merge_qtables", "QAggregationProtocol"]

# Estimated bytes per Q entry on the wire (state, action, value).
_ENTRY_BYTES = 12


def merge_qtables(a: QTable, b: QTable) -> None:
    """Algorithm 2's UPDATE applied to both endpoints.

    After the call, ``a`` and ``b`` contain the identical union map:
    averaged where both had a value, copied where only one did.
    """
    a.merge(b)  # a now holds the merged map
    # b adopts a's merged content (push-pull: both ends update); every key
    # formerly only in b was already folded into a by merge(), so b's
    # post-state is exactly a copy of a.
    b.copy_from(a)


class QAggregationProtocol(Protocol):
    """The aggregation phase as a push-pull round protocol.

    Parameters
    ----------
    n_partitions:
        Keyed buckets the Q-maps are sliced into; each contact ships one
        rotating bucket.  1 (default) ships the full union map — the
        paper's Algorithm 2, bit-identical to the historical behaviour.
    token_budget:
        Bytes refilled into each node's token account per round; 0
        (default) disables flow control entirely.
    token_capacity:
        Account cap in bytes (defaults to 4x the per-round budget).
        Accounts start full, so the first exchanges of the phase go
        through before throttling can bite.
    token_rng:
        Dedicated generator for the randomised-deferral draw; required
        when ``token_budget > 0``, never consulted otherwise.
    """

    def __init__(
        self,
        models: Dict[int, QLearningModel],
        sampler: PeerSampler,
        rng: np.random.Generator,
        n_partitions: int = 1,
        token_budget: float = 0.0,
        token_capacity: Optional[float] = None,
        token_rng: Optional[np.random.Generator] = None,
    ) -> None:
        if n_partitions <= 0:
            raise ValueError(f"n_partitions must be > 0, got {n_partitions}")
        if token_budget < 0.0:
            raise ValueError(f"token_budget must be >= 0, got {token_budget}")
        if token_budget > 0.0 and token_rng is None:
            raise ValueError("token_budget > 0 requires a dedicated token_rng")
        if token_capacity is not None and token_capacity <= 0.0:
            raise ValueError(
                f"token_capacity must be > 0, got {token_capacity}"
            )
        self.models = models
        self.sampler = sampler
        self._rng = rng
        self.n_partitions = int(n_partitions)
        self.token_budget = float(token_budget)
        self.token_capacity = (
            float(token_capacity)
            if token_capacity is not None
            else 4.0 * float(token_budget)
        )
        self._token_rng = token_rng
        self.exchanges = 0  # diagnostics
        #: Cumulative payload bytes handed to the network (req + rep),
        #: dropped deliveries included — the bytes were still sent.
        self.bytes_total = 0
        #: Exchanges skipped because the initiator was out of tokens.
        self.deferred = 0
        #: Cumulative rounds elapsed between consecutive ships of the
        #: same partition by the same node (staleness flow; 0 when
        #: partitioning is off).
        self.partition_lag = 0
        # Per-node rotation cursor and per-partition last-shipped round.
        self._next_partition: Dict[int, int] = {}
        self._last_shipped: Dict[int, List[int]] = {}
        # Per-node token balance and last refill round.
        self._tokens: Dict[int, float] = {}
        self._token_round: Dict[int, int] = {}

    def telemetry_counters(self) -> Dict[str, float]:
        """Cumulative counters for the telemetry registry."""
        return {"aggregation_exchanges": float(self.exchanges)}

    def bandwidth_counters(self) -> Dict[str, float]:
        """Cumulative bandwidth counters (the ``gossip/*`` namespace)."""
        return {
            "bytes": float(self.bytes_total),
            "deferred": float(self.deferred),
            "partition_lag": float(self.partition_lag),
        }

    # -- flow control --------------------------------------------------------

    def _refill(self, node_id: int, round_index: int) -> float:
        """Lazily refill ``node_id``'s account up to ``round_index``."""
        tokens = self._tokens.get(node_id)
        if tokens is None:
            self._tokens[node_id] = self.token_capacity
            self._token_round[node_id] = round_index
            return self.token_capacity
        elapsed = round_index - self._token_round[node_id]
        if elapsed > 0:
            tokens = min(
                self.token_capacity, tokens + self.token_budget * elapsed
            )
            self._tokens[node_id] = tokens
            self._token_round[node_id] = round_index
        return tokens

    def _spend_or_defer(self, node_id: int, cost: float, sim: "Simulation") -> bool:
        """Charge ``cost`` bytes to ``node_id``; False defers the exchange."""
        tokens = self._refill(node_id, sim.round_index)
        if cost <= tokens:
            self._tokens[node_id] = tokens - cost
            return True
        # RandomizedTokenAccount-style: a starved node still fires with
        # probability tokens/cost, draining the account to zero.
        assert self._token_rng is not None  # guaranteed by __init__
        if self._token_rng.random() < tokens / cost:
            self._tokens[node_id] = 0.0
            return True
        self.deferred += 1
        return False

    # -- the exchange --------------------------------------------------------

    def _advance_rotation(self, node_id: int, round_index: int) -> int:
        """Current partition for ``node_id``; advances cursor + lag stats."""
        k = self.n_partitions
        bucket = self._next_partition.get(node_id, 0)
        self._next_partition[node_id] = (bucket + 1) % k
        last = self._last_shipped.get(node_id)
        if last is None:
            last = [-1] * k
            self._last_shipped[node_id] = last
        if last[bucket] >= 0:
            self.partition_lag += round_index - last[bucket]
        last[bucket] = round_index
        return bucket

    def execute_round(self, node: "Node", sim: "Simulation") -> None:
        peer_id = self.sampler.select_peer(node, sim)
        if peer_id is None:
            return
        mine = self.models[node.node_id]
        theirs = self.models[peer_id]
        k = self.n_partitions
        if k > 1:
            # Each table's bucket slots, found once, size the contact and,
            # unless it is deferred, feed the exchange; a deferred contact
            # slices nothing.
            bucket = self._next_partition.get(node.node_id, 0)
            out_a, in_a = mine.q_out.bucket_slots(k, bucket), mine.q_in.bucket_slots(k, bucket)
            out_b, in_b = theirs.q_out.bucket_slots(k, bucket), theirs.q_in.bucket_slots(k, bucket)
            req_entries = out_a.shape[0] + in_a.shape[0]
            rep_entries = out_b.shape[0] + in_b.shape[0]
        else:
            req_entries = mine.total_entries()
            rep_entries = theirs.total_entries()
        req_bytes = req_entries * _ENTRY_BYTES
        rep_bytes = rep_entries * _ENTRY_BYTES
        if self.token_budget > 0.0 and not self._spend_or_defer(
            node.node_id, float(req_bytes + rep_bytes), sim
        ):
            return
        if k > 1:
            # The partition is shipped from here on (even if the network
            # then drops it), so the rotation cursor moves now.
            self._advance_rotation(node.node_id, sim.round_index)
        self.bytes_total += req_bytes + rep_bytes
        if not sim.network.exchange_ok(
            node.node_id,
            peer_id,
            "glap/aggregate",
            req_bytes=req_bytes,
            rep_bytes=rep_bytes,
        ):
            return
        if k > 1:
            # UPDATE restricted to the shipped bucket, both ends at once;
            # other buckets are untouched.
            QTable.merge_bucket(mine.q_out, theirs.q_out, out_a, out_b)
            QTable.merge_bucket(mine.q_in, theirs.q_in, in_a, in_b)
        else:
            merge_qtables(mine.q_out, theirs.q_out)
            merge_qtables(mine.q_in, theirs.q_in)
        self.exchanges += 1
        if sim.tracer.enabled:
            # Push-pull: *both* tables changed, so both sides get an
            # event — the initiator's and the peer's, with mirrored
            # provenance.  Per-node aggregation accounting (events
            # grouped by the ``node`` field) would otherwise undercount
            # the passive side of every exchange.  ``entries`` is the
            # payload each side actually shipped — captured *before*
            # the merge (post-merge sizes are identical on both sides
            # and overstate the traffic).
            sim.tracer.emit(
                "q_push", sim.round_index, node.node_id,
                peer=peer_id, entries=req_entries,
            )
            sim.tracer.emit(
                "q_push", sim.round_index, peer_id,
                peer=node.node_id, entries=rep_entries,
            )

    # -- checkpointing -------------------------------------------------------

    def state_dict(self) -> Dict[str, Any]:
        """JSON-safe mutable state (configuration is caller provenance);
        the per-node cursors and accounts are packed columns."""
        rotating = list(self._next_partition)  # == the keys of _last_shipped
        last_shipped = np.array(list(self._last_shipped.values()), dtype="<i4")
        return {
            "exchanges": self.exchanges,
            "bytes_total": self.bytes_total,
            "deferred": self.deferred,
            "partition_lag": self.partition_lag,
            "rotation_nodes": pack_array(rotating, "<i4"),
            "next_partition": pack_array(list(self._next_partition.values()), "<i4"),
            "last_shipped": pack_array(last_shipped.reshape(len(rotating), self.n_partitions)),
            "token_nodes": pack_array(list(self._tokens), "<i4"),  # == _token_round's
            "tokens": pack_array(list(self._tokens.values()), "<f8"),
            "token_round": pack_array(list(self._token_round.values()), "<i4"),
        }

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        def column(key: str, kinds: str) -> np.ndarray:
            return unpack_array(state.get(key), f"gossip/{key}", kinds)

        self.exchanges = int(state["exchanges"])
        self.bytes_total = int(state["bytes_total"])
        self.deferred = int(state["deferred"])
        self.partition_lag = int(state["partition_lag"])
        rotating = column("rotation_nodes", "i").tolist()
        funded = column("token_nodes", "i").tolist()
        last_shipped = column("last_shipped", "i")
        if last_shipped.shape != (len(rotating), self.n_partitions):
            raise ValueError("gossip/last_shipped: not one round per node and partition")
        self._next_partition = dict(
            zip(rotating, column("next_partition", "i").tolist(), strict=True)
        )
        self._last_shipped = dict(zip(rotating, last_shipped.tolist()))
        self._tokens = dict(zip(funded, column("tokens", "f").tolist(), strict=True))
        self._token_round = dict(zip(funded, column("token_round", "i").tolist(), strict=True))
