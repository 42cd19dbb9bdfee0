"""Deterministic checkpoint/resume for simulation runs.

A checkpoint is a schema-versioned, atomically-written JSON snapshot of
*complete* simulation state at an evaluation-round boundary: RNG stream
states, overlay views, learned Q-models, placement and sleep state,
network and fault-controller progress, and the metrics series collected
so far.  Restoring it in a fresh process and running the remaining
rounds is bit-identical to never having stopped — the golden
checkpoint-equivalence suite pins this for every policy, with faults
and tracing enabled.
"""

from repro.checkpoint.snapshot import (
    CHECKPOINT_SCHEMA,
    CHECKPOINT_SCHEMA_VERSION,
    SUPPORTED_SCHEMA_VERSIONS,
    RunEnv,
    load_checkpoint,
    restore_checkpoint,
    save_checkpoint,
)

__all__ = [
    "CHECKPOINT_SCHEMA",
    "CHECKPOINT_SCHEMA_VERSION",
    "SUPPORTED_SCHEMA_VERSIONS",
    "RunEnv",
    "save_checkpoint",
    "load_checkpoint",
    "restore_checkpoint",
]
