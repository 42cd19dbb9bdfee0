"""Shared utilities: seeded RNG streams, statistics, validation.

These helpers are deliberately dependency-light (NumPy only) and are used
by every other subpackage.  Nothing here knows about data centres or
gossip protocols.
"""

from repro.util.io import atomic_write_json, atomic_write_text
from repro.util.rng import RngStreams, derive_seed
from repro.util.stats import (
    cosine_similarity,
    percentile_summary,
    PercentileSummary,
)
from repro.util.validation import (
    check_fraction,
    check_in_range,
    check_non_negative,
    check_positive,
    check_probability,
)

__all__ = [
    "RngStreams",
    "derive_seed",
    "atomic_write_json",
    "atomic_write_text",
    "cosine_similarity",
    "percentile_summary",
    "PercentileSummary",
    "check_fraction",
    "check_in_range",
    "check_non_negative",
    "check_positive",
    "check_probability",
]
