"""Message accounting and fault models for node-to-node communication.

In a cycle-driven simulation, exchanges are synchronous calls; the
:class:`Network` exists to (a) count the messages and bytes a real
deployment would send — gossip protocols advertise O(1) communication
per node per round and we verify that claim in tests — and (b) inject
message faults for robustness experiments.

Fault model (all reconfigurable at run time through :meth:`Network.configure`
and :meth:`Network.set_partition`, which is how the
:class:`~repro.faults.controller.FaultController` drives chaos runs):

* i.i.d. message loss, globally (``loss_probability``) or per message
  kind (``loss_per_kind``; the most specific ``/``-separated prefix of
  the kind wins, so ``"glap"`` covers ``"glap/state/req"`` unless
  ``"glap/state"`` is also configured);
* network partitions: messages crossing partition groups are dropped
  deterministically (no RNG draw), modelling a clean cut.

Determinism contract: the RNG is consulted *only* when the effective
loss probability of a message is positive, so a lossless network — and
therefore a zero-fault :class:`~repro.faults.plan.FaultPlan` — consumes
no random numbers and leaves the simulation bit-identical.

The byte size of a message is an estimate supplied by the sender (e.g.
a Q-map of ``n`` entries is ``n * ENTRY_BYTES``); we do not serialise
actual payloads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, Mapping, Optional, Sequence

import numpy as np

from repro.util.io import pack_array, unpack_array
from repro.util.validation import check_probability

__all__ = ["Message", "NetworkStats", "Network"]


@dataclass(frozen=True)
class Message:
    """A logical message between two nodes.

    Attributes
    ----------
    src, dst:
        Node ids.  A negative ``dst`` denotes a broadcast/advert with no
        single receiver (used for traffic accounting only); it is never
        blocked by a partition.
    kind:
        Protocol-defined tag (e.g. ``"cyclon/shuffle"``, ``"glap/state"``).
    payload:
        Arbitrary protocol data; never inspected by the network.
    size_bytes:
        Estimated wire size, for traffic accounting.
    """

    src: int
    dst: int
    kind: str
    payload: Any = None
    size_bytes: int = 0


@dataclass
class NetworkStats:
    """Aggregate traffic counters, overall and per message kind."""

    messages_sent: int = 0
    messages_dropped: int = 0
    messages_delivered: int = 0
    bytes_sent: int = 0
    per_kind: Dict[str, int] = field(default_factory=dict)
    dropped_per_kind: Dict[str, int] = field(default_factory=dict)
    delivered_per_kind: Dict[str, int] = field(default_factory=dict)

    def record(self, msg: Message, dropped: bool) -> None:
        # Delivered is counted independently of dropped (not derived as
        # sent - dropped) so the conservation identity sent == delivered
        # + dropped checked by ``glap analyze`` is a real invariant — a
        # counter desynchronised across checkpoint/resume breaks it.
        self.messages_sent += 1
        self.bytes_sent += msg.size_bytes
        self.per_kind[msg.kind] = self.per_kind.get(msg.kind, 0) + 1
        if dropped:
            self.messages_dropped += 1
            self.dropped_per_kind[msg.kind] = self.dropped_per_kind.get(msg.kind, 0) + 1
        else:
            self.messages_delivered += 1
            self.delivered_per_kind[msg.kind] = (
                self.delivered_per_kind.get(msg.kind, 0) + 1
            )


def _validate_loss_per_kind(loss_per_kind: Mapping[str, float]) -> Dict[str, float]:
    out: Dict[str, float] = {}
    for kind, prob in loss_per_kind.items():
        if not kind:
            raise ValueError("loss_per_kind keys must be non-empty strings")
        out[str(kind)] = check_probability(float(prob), f"loss_per_kind[{kind!r}]")
    return out


class Network:
    """Delivers messages subject to loss and partition fault models.

    ``deliver`` returns ``True`` when the message goes through.  Protocols
    treat a dropped message exactly as a real gossip implementation would:
    the round's exchange silently does not happen.
    """

    def __init__(
        self,
        loss_probability: float = 0.0,
        rng: Optional[np.random.Generator] = None,
        loss_per_kind: Optional[Mapping[str, float]] = None,
    ) -> None:
        self.loss_probability = check_probability(loss_probability, "loss_probability")
        self._rng = rng if rng is not None else np.random.default_rng(0)
        self.loss_per_kind: Dict[str, float] = (
            _validate_loss_per_kind(loss_per_kind) if loss_per_kind else {}
        )
        self._partition: Optional[Dict[int, int]] = None
        self.stats = NetworkStats()
        #: Optional message observer, called for every delivery attempt
        #: as ``observer(msg, dropped)`` *after* the drop decision.  It
        #: must be pure accounting: it may not mutate the message, draw
        #: randomness, or influence delivery (the cross-shard ledger in
        #: :mod:`repro.experiments.sharding` hangs off this hook).
        self.observer: Optional[Callable[[Message, bool], None]] = None

    # -- fault-model configuration (the public chaos API) -------------------

    def configure(
        self,
        loss_probability: Optional[float] = None,
        rng: Optional[np.random.Generator] = None,
        loss_per_kind: Optional[Mapping[str, float]] = None,
    ) -> "Network":
        """Reconfigure the loss model in place; ``None`` leaves a field as is.

        This is the supported way for experiments and tests to inject
        message loss mid-run (rather than poking ``_rng``): pass the
        dedicated ``"faults"`` stream as ``rng`` so chaos runs replay
        from the root seed alone.  Returns ``self`` for chaining.
        """
        if loss_probability is not None:
            self.loss_probability = check_probability(
                loss_probability, "loss_probability"
            )
        if rng is not None:
            self._rng = rng
        if loss_per_kind is not None:
            self.loss_per_kind = _validate_loss_per_kind(loss_per_kind)
        return self

    def set_partition(self, groups: Sequence[Iterable[int]]) -> None:
        """Split the network: messages between different groups drop.

        ``groups`` is a sequence of disjoint node-id collections.  Nodes
        absent from every group form one implicit extra group (so a
        single explicit group already isolates it from the rest).  An
        empty sequence clears the partition.
        """
        membership: Dict[int, int] = {}
        for gidx, group in enumerate(groups):
            for nid in group:
                nid = int(nid)
                if nid in membership:
                    raise ValueError(f"node {nid} appears in more than one group")
                membership[nid] = gidx
        self._partition = membership if membership else None

    def clear_partition(self) -> None:
        """Heal any active partition."""
        self._partition = None

    @property
    def partitioned(self) -> bool:
        return self._partition is not None

    # -- delivery ------------------------------------------------------------

    def _crosses_partition(self, src: int, dst: int) -> bool:
        if self._partition is None or dst < 0:
            return False
        return self._partition.get(src, -1) != self._partition.get(dst, -1)

    def _loss_for(self, kind: str) -> float:
        """Effective loss probability: most specific kind prefix wins."""
        if self.loss_per_kind:
            probe = kind
            while probe:
                if probe in self.loss_per_kind:
                    return self.loss_per_kind[probe]
                cut = probe.rfind("/")
                probe = probe[:cut] if cut > 0 else ""
        return self.loss_probability

    def deliver(self, msg: Message) -> bool:
        """Account for ``msg``; return False if the fault model drops it."""
        if self._crosses_partition(msg.src, msg.dst):
            dropped = True
        else:
            p = self._loss_for(msg.kind)
            # Only draw when loss can occur — a lossless network must not
            # consume randomness (the zero-fault identity contract).
            dropped = p > 0.0 and self._rng.random() < p
        self.stats.record(msg, dropped)
        if self.observer is not None:
            self.observer(msg, dropped)
        return not dropped

    def exchange_ok(
        self,
        src: int,
        dst: int,
        kind: str,
        size_bytes: int = 0,
        *,
        req_bytes: Optional[int] = None,
        rep_bytes: Optional[int] = None,
    ) -> bool:
        """Account for a request+reply pair; succeeds only if *both* survive.

        Push-pull gossip needs the request and the response delivered; a
        drop of either aborts the exchange for this round.

        ``req_bytes``/``rep_bytes`` size the two directions independently
        (a push-pull exchange ships *my* payload on the request and the
        peer's on the reply); either defaults to the symmetric
        ``size_bytes`` when not given.
        """
        req_size = size_bytes if req_bytes is None else req_bytes
        rep_size = size_bytes if rep_bytes is None else rep_bytes
        if (
            self.observer is None
            and self._partition is None
            and self.loss_probability == 0.0
            and not self.loss_per_kind
        ):
            # Nothing can drop or watch the pair: count both directions
            # as ``NetworkStats.record`` would, without building the
            # messages (no RNG draw either way).
            stats = self.stats
            stats.messages_sent += 2
            stats.messages_delivered += 2
            stats.bytes_sent += req_size + rep_size
            sent, delivered = stats.per_kind, stats.delivered_per_kind
            for key in (kind + "/req", kind + "/rep"):
                sent[key] = sent.get(key, 0) + 1
                delivered[key] = delivered.get(key, 0) + 1
            return True
        request = self.deliver(Message(src, dst, kind + "/req", size_bytes=req_size))
        reply = self.deliver(Message(dst, src, kind + "/rep", size_bytes=rep_size))
        return request and reply

    # -- telemetry -----------------------------------------------------------

    def telemetry_counters(self) -> Dict[str, float]:
        """Cumulative traffic counters for the telemetry registry.

        Flat keys: ``sent``/``delivered``/``dropped``/``bytes`` plus the
        per-kind ``sent/<kind>`` (and delivered/dropped) variants, so a
        telemetry section can verify message conservation per kind.
        """
        stats = self.stats
        counters: Dict[str, float] = {
            "sent": float(stats.messages_sent),
            "delivered": float(stats.messages_delivered),
            "dropped": float(stats.messages_dropped),
            "bytes": float(stats.bytes_sent),
        }
        for kind, n in stats.per_kind.items():
            counters[f"sent/{kind}"] = float(n)
        for kind, n in stats.delivered_per_kind.items():
            counters[f"delivered/{kind}"] = float(n)
        for kind, n in stats.dropped_per_kind.items():
            counters[f"dropped/{kind}"] = float(n)
        return counters

    # -- checkpointing -------------------------------------------------------

    def state_dict(self) -> Dict[str, Any]:
        """JSON-safe fault-model configuration + traffic counters.

        The RNG is *not* captured here: when a fault controller is
        installed the network shares the ``"faults"`` stream, whose
        state :class:`~repro.util.rng.RngStreams` checkpoints; without
        one the loss probability is zero and the generator is never
        consulted.
        """
        return {
            "loss_probability": self.loss_probability,
            "loss_per_kind": dict(self.loss_per_kind),
            "partition": (
                {
                    "node": pack_array(list(self._partition), "<i4"),
                    "group": pack_array(list(self._partition.values()), "<i4"),
                }
                if self._partition is not None
                else None
            ),
            "stats": {
                "messages_sent": self.stats.messages_sent,
                "messages_dropped": self.stats.messages_dropped,
                "messages_delivered": self.stats.messages_delivered,
                "bytes_sent": self.stats.bytes_sent,
                "per_kind": dict(self.stats.per_kind),
                "dropped_per_kind": dict(self.stats.dropped_per_kind),
                "delivered_per_kind": dict(self.stats.delivered_per_kind),
            },
        }

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        """Restore configuration/counters captured by :meth:`state_dict`.

        Needed on resume because the fault controller skips
        reconfiguration while the active phase is unchanged — the
        network must already be in the phase's configured state.
        """
        self.loss_probability = check_probability(
            float(state["loss_probability"]), "loss_probability"
        )
        self.loss_per_kind = _validate_loss_per_kind(state["loss_per_kind"])
        partition = state["partition"]
        if partition is not None:
            nodes, groups = (
                unpack_array(partition.get(key), f"network/partition/{key}", "i").tolist()
                for key in ("node", "group")
            )
            partition = dict(zip(nodes, groups, strict=True))
        self._partition = partition
        stats = state["stats"]
        self.stats.messages_sent = int(stats["messages_sent"])
        self.stats.messages_dropped = int(stats["messages_dropped"])
        self.stats.bytes_sent = int(stats["bytes_sent"])
        self.stats.per_kind = {str(k): int(v) for k, v in stats["per_kind"].items()}
        self.stats.dropped_per_kind = {
            str(k): int(v) for k, v in stats["dropped_per_kind"].items()
        }
        self.stats.messages_delivered = int(stats["messages_delivered"])
        self.stats.delivered_per_kind = {
            str(k): int(v) for k, v in stats["delivered_per_kind"].items()
        }
