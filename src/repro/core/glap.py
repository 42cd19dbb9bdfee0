"""GLAP protocol wiring: Cyclon + two-phase learning + consolidation.

:class:`GlapPolicy` assembles the paper's full component stack
(Figure 2) onto a simulation:

* one shared :class:`~repro.overlay.cyclon.CyclonProtocol` instance
  (membership);
* one shared :class:`_GlapPhaseProtocol`, registered on every node as
  ``"glap"``, which runs each node's round in the current phase:

  - ``LEARN``       — Algorithm 1 (local training), during warmup;
  - ``AGGREGATE``   — Algorithm 2 (gossip averaging), the tail of warmup;
  - ``CONSOLIDATE`` — Algorithm 3, the evaluation phase.

The phase split realises the paper's experimental setup: "For GLAP, we
executed 700 more rounds to calculate Q-values beforehand."  It follows
the round number: LEARN → AGGREGATE at the first call in round
``warmup_rounds - aggregation_rounds - 1``, then CONSOLIDATE at
:meth:`GlapPolicy.end_warmup`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Optional, Tuple

import numpy as np

from repro.core.aggregation import QAggregationProtocol
from repro.core.consolidation import GlapConsolidationProtocol
from repro.core.convergence import mean_pairwise_cosine
from repro.core.learning import GossipLearningProtocol
from repro.core.qlearning import QLearningConfig, QLearningModel
from repro.core.qtable import QTable
from repro.baselines.base import ConsolidationPolicy
from repro.overlay.cyclon import CyclonProtocol
from repro.simulator.protocol import Protocol
from repro.util.io import pack_array, unpack_array
from repro.util.validation import check_fraction, check_positive

if TYPE_CHECKING:  # pragma: no cover
    from repro.datacenter.cluster import DataCenter
    from repro.simulator.engine import Simulation
    from repro.simulator.node import Node
    from repro.util.rng import RngStreams

__all__ = ["GlapPhase", "GlapConfig", "GlapPolicy"]


class GlapPhase(enum.Enum):
    LEARN = "learn"
    AGGREGATE = "aggregate"
    CONSOLIDATE = "consolidate"


@dataclass(frozen=True)
class GlapConfig:
    """All GLAP knobs in one place."""

    qlearning: QLearningConfig = field(default_factory=QLearningConfig)
    #: Cyclon view size / shuffle length.
    view_size: int = 20
    shuffle_len: int = 8
    #: Learning runs only on PMs with utilisation <= this (paper: PMs
    #: with >= 50% free CPU in the Figure 5 experiment).
    learning_utilization_threshold: float = 0.5
    #: The paper's ``k``: simulated migrations per PM per learning round.
    learning_iterations_per_round: int = 20
    #: A node trains every this-many rounds (staggered across nodes).
    learning_period: int = 2
    #: Profile duplication target (x PM capacity) to reach heavy states.
    learning_coverage_target: float = 2.0
    #: Rounds of the aggregation phase at the end of warmup.
    aggregation_rounds: int = 30
    #: Ablation switch: disable the Q_in admission guard.
    use_q_in_guard: bool = True
    #: Overlay driving peer sampling: "cyclon" (the paper) or "static"
    #: (a fixed random graph — the Figure 1 pathology case, since it
    #: cannot reconfigure around switched-off PMs).
    overlay: str = "cyclon"
    #: Network-topology awareness (the paper's future-work extension):
    #: probability that a gossip exchange is directed at a same-rack
    #: peer.  0 disables the extension (the paper's published GLAP).
    rack_bias: float = 0.0
    #: PMs per rack when rack_bias > 0.
    rack_size: int = 16
    #: Keyed Q-map partitions for the aggregation exchange; 1 (default)
    #: ships the full union map — the paper's Algorithm 2.
    q_partitions: int = 1
    #: Token-account flow control: bytes refilled per node per round;
    #: 0 (default) disables throttling entirely.
    gossip_tokens: float = 0.0
    #: Token account cap in bytes (default: 4x gossip_tokens).
    gossip_token_capacity: Optional[float] = None


    def __post_init__(self) -> None:
        check_fraction(self.learning_utilization_threshold, "learning_utilization_threshold")
        check_positive(self.learning_iterations_per_round, "learning_iterations_per_round")
        check_positive(self.learning_period, "learning_period")
        check_positive(self.aggregation_rounds, "aggregation_rounds")
        if self.view_size <= 0 or not 1 <= self.shuffle_len <= self.view_size:
            raise ValueError(
                f"invalid overlay sizes: view_size={self.view_size}, "
                f"shuffle_len={self.shuffle_len}"
            )
        if self.overlay not in ("cyclon", "static"):
            raise ValueError(f"overlay must be 'cyclon' or 'static', got {self.overlay!r}")
        check_fraction(self.rack_bias, "rack_bias")
        check_positive(self.rack_size, "rack_size")
        check_positive(self.q_partitions, "q_partitions")
        if self.gossip_tokens < 0.0:
            raise ValueError(
                f"gossip_tokens must be >= 0, got {self.gossip_tokens}"
            )
        if self.gossip_token_capacity is not None:
            check_positive(self.gossip_token_capacity, "gossip_token_capacity")


class _GlapPhaseProtocol(Protocol):
    """Runs a node's round in the protocol of the current phase.

    The LEARN → AGGREGATE switch is made here, at the first call in
    round ``aggregate_from``, after applying what Alg. 1 collected.
    """

    def __init__(
        self,
        learning: GossipLearningProtocol,
        aggregation: QAggregationProtocol,
        consolidation: GlapConsolidationProtocol,
        aggregate_from: int,
    ) -> None:
        self.phase = GlapPhase.LEARN
        self.learning = learning
        self.aggregation = aggregation
        self.consolidation = consolidation
        self.aggregate_from = aggregate_from

    def execute_round(self, node: "Node", sim: "Simulation") -> None:
        if self.phase is GlapPhase.LEARN:
            if sim.round_index < self.aggregate_from:
                protocol, label = self.learning, "learning"
            else:
                self.learning.flush()
                self.phase = GlapPhase.AGGREGATE
                protocol, label = self.aggregation, "aggregation"
        elif self.phase is GlapPhase.AGGREGATE:
            protocol, label = self.aggregation, "aggregation"
        else:
            protocol, label = self.consolidation, "consolidation"
        prof = sim.profiler
        if prof.enabled:
            with prof.phase(label):
                protocol.execute_round(node, sim)
        else:
            protocol.execute_round(node, sim)


class GlapPolicy(ConsolidationPolicy):
    """The paper's contribution, packaged as a runnable policy."""

    name = "GLAP"

    def __init__(
        self,
        config: Optional[GlapConfig] = None,
        pretrained: Optional[QLearningModel] = None,
    ) -> None:
        """``pretrained``: seed every PM's model with a copy of an
        already-learned model (e.g. exported from a previous run via
        :meth:`export_model`) — the paper's "continue using the previous
        Q-values" mode.  Warmup learning then refines it."""
        self.config = config if config is not None else GlapConfig()
        self.pretrained = pretrained
        # Populated by attach():
        self._models: Dict[int, QLearningModel] = {}
        self.cyclon: Optional[CyclonProtocol] = None
        self.phase_protocol: Optional[_GlapPhaseProtocol] = None
        # (change stamp, value) memo for the convergence gauge.
        self._convergence_cache: Optional[Tuple[Tuple[int, int, int], float]] = None

    @property
    def models(self) -> Dict[int, QLearningModel]:
        """Per-node models, current: training rounds Alg. 1 has collected
        but not yet applied are flushed first."""
        if self.phase_protocol is not None:
            self.phase_protocol.learning.flush()
        return self._models

    # -- ConsolidationPolicy ------------------------------------------------

    def attach(
        self,
        dc: "DataCenter",
        sim: "Simulation",
        streams: "RngStreams",
        warmup_rounds: int,
    ) -> None:
        cfg = self.config
        if warmup_rounds <= cfg.aggregation_rounds:
            raise ValueError(
                f"warmup_rounds ({warmup_rounds}) must exceed "
                f"aggregation_rounds ({cfg.aggregation_rounds}) to leave "
                "room for the learning phase"
            )

        node_ids = [n.node_id for n in sim.nodes]
        if cfg.overlay == "cyclon":
            self.cyclon = CyclonProtocol(
                view_size=min(cfg.view_size, len(node_ids) - 1),
                shuffle_len=min(cfg.shuffle_len, cfg.view_size, len(node_ids) - 1),
                rng=streams.get("glap/cyclon"),
            )
            self.cyclon.bootstrap_random(node_ids)
            sampler = self.cyclon
        else:
            from repro.overlay.static import StaticOverlay

            self.cyclon = None
            sampler = StaticOverlay.random_regular(
                node_ids,
                degree=min(cfg.view_size, len(node_ids) - 1),
                rng=streams.get("glap/static"),
            )
        overlay_protocol = sampler  # the Protocol registered on nodes
        self.topology = None
        if cfg.rack_bias > 0.0:
            from repro.datacenter.topology import RackBiasedSampler, RackTopology

            self.topology = RackTopology(len(node_ids), rack_size=cfg.rack_size)
            sampler = RackBiasedSampler(
                sampler,
                self.topology,
                rack_bias=cfg.rack_bias,
                rng=streams.get("glap/rack-bias"),
            )
        self._sampler = sampler

        if self.pretrained is not None:
            # O(1) per PM: copies share the pretrained arrays until a PM
            # trains or merges (QTable is copy-on-write).
            self._models = {nid: self.pretrained.copy() for nid in node_ids}
        else:
            self._models = {nid: QLearningModel(cfg.qlearning) for nid in node_ids}
        learning = GossipLearningProtocol(
            self._models,
            sampler,
            streams.get("glap/learning"),
            utilization_threshold=cfg.learning_utilization_threshold,
            iterations_per_round=cfg.learning_iterations_per_round,
            coverage_target=cfg.learning_coverage_target,
            learning_period=cfg.learning_period,
        )
        # The token-deferral stream exists only when throttling is on, so
        # zero-budget configs register no extra stream and their RNG
        # checkpoint state stays byte-identical to pre-bandwidth runs.
        token_rng = (
            streams.get("glap/gossip-tokens") if cfg.gossip_tokens > 0.0 else None
        )
        aggregation = QAggregationProtocol(
            self._models,
            sampler,
            streams.get("glap/aggregation"),
            n_partitions=cfg.q_partitions,
            token_budget=cfg.gossip_tokens,
            token_capacity=cfg.gossip_token_capacity,
            token_rng=token_rng,
        )
        consolidation = GlapConsolidationProtocol(
            dc,
            self._models,
            sampler,
            use_q_in_guard=cfg.use_q_in_guard,
        )
        # Aggregation gets aggregation_rounds + 1 rounds: the schedule
        # every golden digest and the Fig. 5 pins were recorded with.
        aggregate_from = warmup_rounds - cfg.aggregation_rounds - 1
        self.phase_protocol = _GlapPhaseProtocol(
            learning, aggregation, consolidation, aggregate_from
        )
        for node in sim.nodes:
            node.register("overlay", overlay_protocol)
            node.register("glap", self.phase_protocol)

        tel = sim.telemetry
        if tel.enabled:
            tel.register_counters("glap", self._telemetry_counters)
            tel.register_counters("gossip", aggregation.bandwidth_counters)
            tel.register_gauge("glap/q_cosine", self._sample_convergence)

    def _telemetry_counters(self) -> Dict[str, float]:
        """Cumulative GLAP counters for the telemetry registry."""
        assert self.phase_protocol is not None
        pp = self.phase_protocol
        cons = pp.consolidation
        attempted = (
            cons.migrations_done
            + cons.rejections_by_q_in
            + cons.rejections_by_capacity
        )
        counters: Dict[str, float] = {
            "consolidation_exchanges": float(cons.exchanges),
            "migrations_attempted": float(attempted),
            "migrations_accepted": float(cons.migrations_done),
            "reject_q_in": float(cons.rejections_by_q_in),
            "reject_capacity": float(cons.rejections_by_capacity),
            "switch_offs": float(cons.switch_offs),
            "td_error_abs": pp.learning.td_error_abs,
            "td_updates": float(pp.learning.td_updates),
            "train_rounds": float(pp.learning.train_rounds),
        }
        counters.update(pp.aggregation.telemetry_counters())
        return counters

    # Cap the live convergence sample so the gauge stays cheap on large
    # populations (the dense Q-matrix build is linear in models kept):
    # 16 models / 120 pairs estimates the same mean as the offline
    # all-pairs pass within the gate's tolerance, and keeps the gauge
    # inside the perf-smoke cell's <= 5% telemetry overhead budget.
    _CONVERGENCE_MODEL_CAP = 16
    _CONVERGENCE_PAIR_CAP = 300

    def _sample_convergence(self) -> float:
        """Live Fig. 5 sample: mean pairwise Q-table cosine similarity.

        Deterministic and RNG-isolated — the pair sampler gets a fresh
        seeded generator, so the gauge never perturbs the simulation.

        Models mutate only through training (``train_rounds`` /
        ``td_updates``, which telemetry-enabled runs always track) and
        aggregation merges (``exchanges``), so those counters form a
        change stamp: while it stands still — every consolidation-phase
        sample, where models are frozen — the cached value is returned
        instead of rebuilding the Q-matrix.  A stamp hit recomputes to
        the same value by construction, so resumed runs (which start
        with a cold cache) sample identically.
        """
        assert self.phase_protocol is not None
        pp = self.phase_protocol
        pp.learning.flush()  # the stamp counts applied updates
        stamp = (
            pp.learning.train_rounds,
            pp.learning.td_updates,
            pp.aggregation.exchanges,
        )
        cached = self._convergence_cache
        if cached is not None and cached[0] == stamp:
            return cached[1]
        models = [
            self._models[nid] for nid in sorted(self._models)
        ][: self._CONVERGENCE_MODEL_CAP]
        value = mean_pairwise_cosine(
            models, rng=np.random.default_rng(0), max_pairs=self._CONVERGENCE_PAIR_CAP
        )
        self._convergence_cache = (stamp, value)
        return value

    def end_warmup(self, dc: "DataCenter", sim: "Simulation") -> None:
        assert self.phase_protocol is not None, "attach() must run first"
        self.phase_protocol.learning.flush()
        self.phase_protocol.phase = GlapPhase.CONSOLIDATE

    @property
    def phase(self) -> GlapPhase:
        """The phase of the round just run."""
        assert self.phase_protocol is not None
        return self.phase_protocol.phase

    def export_model(self) -> QLearningModel:
        """A copy of one PM's learned model (post-aggregation they are
        all but identical) — feed it back via ``GlapPolicy(pretrained=...)``."""
        if not self.models:
            raise RuntimeError("export_model before attach(): nothing learned")
        return next(iter(self.models.values())).copy()

    @property
    def consolidation(self) -> GlapConsolidationProtocol:
        assert self.phase_protocol is not None
        return self.phase_protocol.consolidation

    # -- checkpointing -------------------------------------------------------

    def state_dict(self) -> Dict:
        assert self.phase_protocol is not None, "attach() must run first"
        pp = self.phase_protocol
        models = self.models  # flushed: the TD sums below are current too
        cons = pp.consolidation
        out: Dict = {
            "phase": pp.phase.value,
            # One owner column and two packed table sets, aligned by row.
            "models": {
                "owner": pack_array(list(models), "<i4"),
                "q_out": QTable.pack_all([m.q_out for m in models.values()]),
                "q_in": QTable.pack_all([m.q_in for m in models.values()]),
            },
            "aggregation_exchanges": pp.aggregation.exchanges,
            "gossip": pp.aggregation.state_dict(),
            "consolidation": {
                "exchanges": cons.exchanges,
                "rejections_by_q_in": cons.rejections_by_q_in,
                "rejections_by_capacity": cons.rejections_by_capacity,
                "switch_offs": cons.switch_offs,
                "migrations_done": cons.migrations_done,
            },
            "learning": {
                "td_error_abs": pp.learning.td_error_abs,
                "td_updates": pp.learning.td_updates,
                "train_rounds": pp.learning.train_rounds,
            },
        }
        if self.cyclon is not None:
            out["cyclon"] = self.cyclon.state_dict()
        return out

    def load_state_dict(self, state: Dict) -> None:
        assert self.phase_protocol is not None, "attach() must run first"
        pp = self.phase_protocol
        # Older checkpoints also carry the two counters of a retired
        # per-round tick; the phase follows the round number instead.
        pp.phase = GlapPhase(state["phase"])
        # The models dict object is shared with the learning/aggregation/
        # consolidation protocols — replace values in place, never rebind.
        models, packed = self.models, state["models"]
        owners = unpack_array(packed.get("owner"), "glap/models/owner", "i").tolist()
        q_out = QTable.unpack_all(packed["q_out"], "glap/models/q_out")
        q_in = QTable.unpack_all(packed["q_in"], "glap/models/q_in")
        for nid, out_table, in_table in zip(owners, q_out, q_in, strict=True):
            model = models[nid] = QLearningModel(self.config.qlearning)
            model.q_out, model.q_in = out_table, in_table
        pp.aggregation.exchanges = int(state["aggregation_exchanges"])
        pp.aggregation.load_state_dict(state["gossip"])
        cons = pp.consolidation
        cons_state = state["consolidation"]
        cons.exchanges = int(cons_state["exchanges"])
        cons.rejections_by_q_in = int(cons_state["rejections_by_q_in"])
        cons.rejections_by_capacity = int(cons_state["rejections_by_capacity"])
        cons.switch_offs = int(cons_state["switch_offs"])
        cons.migrations_done = int(cons_state["migrations_done"])
        learning_state = state["learning"]
        pp.learning.td_error_abs = float(learning_state["td_error_abs"])
        pp.learning.td_updates = int(learning_state["td_updates"])
        pp.learning.train_rounds = int(learning_state["train_rounds"])
        if self.cyclon is not None:
            self.cyclon.load_state_dict(state["cyclon"])

