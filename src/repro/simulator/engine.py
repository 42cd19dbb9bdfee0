"""The cycle-driven simulation engine.

Semantics (matching PeerSim's ``CDSimulator``):

* Time advances in integer rounds.
* Every *live* node's active thread runs exactly once per protocol, in
  a fresh random permutation each round — the permutation models the
  unsynchronised wall-clock offsets of real gossip nodes.
* Protocols execute in registration order within a node (the overlay
  first, then GLAP's phase protocol — matching the component stack of
  the paper's Figure 2).  A protocol with per-round work of its own
  (GLAP's phase switch, Alg. 1's flush) does it at its first call of a
  round; the engine has no other hook.
* At the end of the round every observer samples the state.

Nodes that fall asleep mid-round are skipped for the rest of the round
(their ``is_up`` is re-checked immediately before execution), exactly as
a switched-off PM stops gossiping.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.obs.profiler import NULL_PROFILER, NullProfiler
from repro.obs.telemetry import NULL_TELEMETRY, Telemetry
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.simulator.network import Network
from repro.simulator.node import Node, NodeState
from repro.simulator.observer import Observer

__all__ = ["Simulation"]


class Simulation:
    """Round loop over a fixed node population.

    Parameters
    ----------
    nodes:
        The full node population (live and sleeping).
    rng:
        Generator driving engine-level randomness (execution order).
        Protocol-level randomness should come from separate streams.
    network:
        Message accounting / fault injection; a default lossless network
        is created when omitted.
    """

    def __init__(
        self,
        nodes: Sequence[Node],
        rng: np.random.Generator,
        network: Optional[Network] = None,
    ) -> None:
        if len(nodes) == 0:
            raise ValueError("simulation needs at least one node")
        ids = [n.node_id for n in nodes]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate node ids in population")
        self._nodes: List[Node] = list(nodes)
        self._by_id: Dict[int, Node] = {n.node_id: n for n in nodes}
        self._rng = rng
        self.network = network if network is not None else Network()
        self._observers: List[Observer] = []
        # Resolved protocol stacks (see _resolve_stacks): per node, in
        # population order, and how many registrations they reflect.
        self._protocol_maps = [n.protocols for n in self._nodes]
        self._registered = -1
        self._active: List[Tuple[Any, ...]] = []
        self._any_active = False
        self.round_index: int = 0
        self._finished = False
        #: Observability hooks — no-op by default, so an uninstrumented
        #: run pays one attribute check per guarded site and consumes no
        #: randomness either way (the golden suite pins this).
        self.tracer: Tracer = NULL_TRACER
        self.profiler: NullProfiler = NULL_PROFILER
        self.telemetry: Telemetry = NULL_TELEMETRY

    # -- population access --------------------------------------------------

    @property
    def nodes(self) -> List[Node]:
        """All nodes, including sleeping/failed ones."""
        return self._nodes

    def node(self, node_id: int) -> Node:
        try:
            return self._by_id[node_id]
        except KeyError:
            raise KeyError(f"no node with id {node_id}") from None

    def live_nodes(self) -> List[Node]:
        return [n for n in self._nodes if n.is_up]

    def live_count(self) -> int:
        return [n.state for n in self._nodes].count(NodeState.UP)

    # -- observers ------------------------------------------------------------

    def add_observer(self, observer: Observer) -> None:
        self._observers.append(observer)

    # -- execution --------------------------------------------------------------

    def _resolve_stacks(self) -> None:
        """Resolve every node's stack once, until a ``Node.register``.

        ``register`` is the only way a stack changes and it only ever
        adds, so the population's total protocol count moves exactly
        when some stack is out of date.
        """
        registered = sum(map(len, self._protocol_maps))
        if registered == self._registered:
            return
        self._registered = registered
        self._active = [tuple(protocols.values()) for protocols in self._protocol_maps]
        self._any_active = any(self._active)

    def run_round(self) -> None:
        """Execute one full round: active threads, then observers."""
        prof = self.profiler
        if prof.enabled:
            with prof.phase("gossip"):
                self._run_active_threads()
            with prof.phase("observers"):
                self._run_observers()
        else:
            self._run_active_threads()
            self._run_observers()
        self.round_index += 1

    def _run_active_threads(self) -> None:
        # Active threads in random order.  The snapshot of live nodes is
        # taken once; nodes that sleep mid-round are skipped when their
        # turn comes (re-checked below), and nodes woken mid-round only
        # start participating next round — both match how a real gossip
        # round would unfold.
        self._resolve_stacks()
        if not self._any_active:
            # Nobody has an active thread (an idle run, or a centralised
            # policy working from ``policy.step``): only the engine
            # stream's draw for this round remains of the loop below.
            self._rng.permutation(self.live_count())
            return
        up = NodeState.UP
        live = [pair for pair in zip(self._nodes, self._active) if pair[0].state is up]
        for idx in self._rng.permutation(len(live)).tolist():
            node, stack = live[idx]
            if node.state is not up:
                continue
            for protocol in stack:
                if node.state is not up:
                    break
                protocol.execute_round(node, self)

    def _run_observers(self) -> None:
        # End-of-round sampling.
        for observer in self._observers:
            observer.observe(self.round_index, self)

    def run(self, rounds: int, *, finish: bool = True) -> None:
        """Execute ``rounds`` additional rounds.

        ``finish=True`` (the default) marks the logical run as complete
        afterwards, firing each observer's ``on_simulation_end`` exactly
        once per :class:`Simulation` (see :meth:`finish`).  Callers that
        run in chunks — warmup then evaluation, or round-by-round via
        :meth:`run_round` — pass ``finish=False`` for the intermediate
        chunks and call :meth:`finish` when the whole run is over.
        """
        if rounds < 0:
            raise ValueError(f"rounds must be >= 0, got {rounds}")
        for _ in range(rounds):
            self.run_round()
        if finish and rounds > 0:
            self.finish()

    def finish(self) -> None:
        """Declare the logical run complete.

        Fires every observer's ``on_simulation_end`` hook; idempotent, so
        however the run was driven (one ``run`` call, several chunks, or
        ``run_round`` in a loop) observers see exactly one end-of-
        simulation callback.
        """
        if self._finished:
            return
        self._finished = True
        for observer in self._observers:
            observer.on_simulation_end(self)

    @property
    def finished(self) -> bool:
        """Whether :meth:`finish` has been called."""
        return self._finished

    def resume_at(self, round_index: int) -> None:
        """Reposition the round counter when restoring from a checkpoint.

        The engine itself is stateless beyond the counter (its RNG is an
        externally-owned stream whose state the checkpoint restores
        separately), so resuming is just: rebuild the population and
        protocols deterministically, overwrite their state, then call
        this so the next :meth:`run_round` executes as round
        ``round_index``.  Refuses to rewind a simulation that has
        already run or finished — resume targets a *fresh* engine.
        """
        if round_index < 0:
            raise ValueError(f"round_index must be >= 0, got {round_index}")
        if self._finished:
            raise RuntimeError("cannot resume a finished simulation")
        if self.round_index > round_index:
            raise RuntimeError(
                f"cannot rewind round {self.round_index} to {round_index}; "
                "resume must start from a freshly built simulation"
            )
        self.round_index = round_index

    # -- convenience -----------------------------------------------------------

    def wake(self, node_id: int, *, recover: bool = False) -> None:
        """Wake a sleeping node.

        ``recover=True`` restarts a *failed* node instead (via
        :meth:`Node.recover`) — the engine-level entry point for
        crash/restart churn schedules; plain ``wake`` keeps refusing
        failed nodes so policies cannot undo a crash.
        """
        node = self.node(node_id)
        if recover and node.is_failed:
            node.recover()
        else:
            node.wake()
        if self.tracer.enabled:
            self.tracer.emit("pm_wake", self.round_index, node_id, recover=recover)
        if self.telemetry.enabled:
            self.telemetry.inc("engine/pm_wake")
