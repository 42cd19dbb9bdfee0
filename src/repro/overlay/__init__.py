"""Peer-sampling overlays.

GLAP's three components all draw random peers from an unstructured
overlay.  The paper uses Cyclon [Voulgaris et al. 2005]; we implement it
faithfully (age-based shuffles over a bounded partial view) plus a static
random k-regular overlay used as an ablation baseline and in unit tests
where a fixed topology makes assertions simpler.

Both expose the same :class:`PeerSampler` interface: ``select_peer`` for
a uniform-ish random live neighbour and ``neighbors`` for the current
view, so higher layers are overlay-agnostic.
"""
