"""Deterministic random-number management.

A simulation run touches randomness in many places: overlay shuffles,
trace generation, VM placement, peer selection, learning subsets, ...
If all of them shared one generator, adding a single extra draw anywhere
would perturb every later decision and make results impossible to compare
across code versions or policies.  Instead we derive one *named stream*
per concern from a single root seed, in the spirit of the "one generator
per logical component" idiom recommended for reproducible HPC simulations.

Streams are derived with :class:`numpy.random.SeedSequence` spawning keyed
by a stable hash of the stream name, so:

* the same ``(root_seed, name)`` pair always yields the same stream,
* distinct names yield statistically independent streams,
* adding a new stream never changes existing ones.

The registry also supports checkpointing: every generator handed out is
registered under its name, and :meth:`RngStreams.state_dict` /
:meth:`RngStreams.load_state_dict` round-trip the exact bit-generator
state of every registered stream.
"""

from __future__ import annotations

import zlib
from typing import Dict, List

import numpy as np

__all__ = ["derive_seed", "RngStreams"]


def derive_seed(root_seed: int, name: str) -> int:
    """Derive a child seed from ``root_seed`` and a stream ``name``.

    Uses CRC32 of the name (stable across processes and Python versions,
    unlike ``hash``) mixed into a SeedSequence.
    """
    if not isinstance(root_seed, (int, np.integer)):
        raise TypeError(f"root_seed must be an int, got {type(root_seed).__name__}")
    tag = zlib.crc32(name.encode("utf-8"))
    seq = np.random.SeedSequence(entropy=int(root_seed), spawn_key=(tag,))
    return int(seq.generate_state(1, dtype=np.uint64)[0])


class RngStreams:
    """A registry of independent, named :class:`numpy.random.Generator` s.

    Example
    -------
    >>> streams = RngStreams(seed=42)
    >>> overlay_rng = streams.get("overlay")
    >>> trace_rng = streams.get("traces")
    >>> overlay_rng is streams.get("overlay")   # cached
    True
    """

    def __init__(self, seed: int) -> None:
        if not isinstance(seed, (int, np.integer)):
            raise TypeError(f"seed must be an int, got {type(seed).__name__}")
        self._seed = int(seed)
        self._streams: Dict[str, np.random.Generator] = {}
        # crc32 tag -> stream name, for collision detection.  Two
        # distinct names hashing to the same tag would silently yield
        # *identical* "independent" streams — a correctness bug that
        # nothing downstream could detect.  We refuse loudly instead.
        self._tags: Dict[int, str] = {}

    @property
    def seed(self) -> int:
        """The root seed all streams derive from."""
        return self._seed

    def names(self) -> List[str]:
        """Names of every registered stream, in registration order."""
        return list(self._streams)

    def get(self, name: str) -> np.random.Generator:
        """Return (creating if necessary) the generator for ``name``."""
        if not name:
            raise ValueError("stream name must be a non-empty string")
        gen = self._streams.get(name)
        if gen is None:
            self._check_tag(name)
            gen = np.random.default_rng(derive_seed(self._seed, name))
            self._streams[name] = gen
        return gen

    def state_dict(self) -> Dict[str, Dict]:
        """Bit-generator state of every registered stream, by name.

        The values are the (JSON-serialisable) ``bit_generator.state``
        dicts NumPy exposes; restoring them via :meth:`load_state_dict`
        reproduces each stream's future draws exactly.
        """
        return {name: gen.bit_generator.state for name, gen in self._streams.items()}

    def load_state_dict(self, states: Dict[str, Dict]) -> None:
        """Restore stream states captured by :meth:`state_dict`.

        Streams are created (registered) as needed, then their
        bit-generator state is overwritten — any draws consumed while
        rebuilding the run up to the checkpoint become irrelevant.
        """
        for name, state in states.items():
            self.get(name).bit_generator.state = state

    def _check_tag(self, name: str) -> None:
        tag = zlib.crc32(name.encode("utf-8"))
        existing = self._tags.get(tag)
        if existing is not None and existing != name:
            raise ValueError(
                f"stream name {name!r} collides with registered stream "
                f"{existing!r} (identical CRC32 tag {tag}); the two would "
                "share a seed — rename one of them"
            )
        self._tags[tag] = name

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"RngStreams(seed={self._seed}, streams={sorted(self._streams)})"
