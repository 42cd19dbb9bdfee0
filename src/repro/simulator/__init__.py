"""Round-based peer-to-peer simulation engine (PeerSim equivalent).

The paper evaluates GLAP on PeerSim's *cycle-driven* mode: time advances
in discrete rounds; in each round every live node's active thread runs
once (in random order), contacting peers whose passive threads reply
within the same round.  This package reproduces those semantics:

* :class:`~repro.simulator.node.Node` — a participant with a lifecycle
  (``UP`` / ``SLEEPING`` / ``FAILED``) and a stack of named protocols.
* :class:`~repro.simulator.protocol.Protocol` — active/passive behaviour,
  one ``execute_round`` per node per round.
* :class:`~repro.simulator.network.Network` — message accounting plus
  optional loss/latency models for failure-injection tests.
* :class:`~repro.simulator.engine.Simulation` — the round loop: active
  threads in a fresh random order, then observers sampled at the end of
  every round.
"""
