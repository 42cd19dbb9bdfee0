"""Observers sample simulation state at the end of every round.

The paper's evaluation metrics "are sampled at the end of each round";
observers are the hook for that.  They must be read-only: mutating the
simulation from an observer would entangle measurement with behaviour.

:class:`InvariantObserver` is the always-on safety net for chaos runs:
it re-checks the data centre's conservation laws after every round and
raises :class:`InvariantViolation` the moment a policy (or a fault
schedule) corrupts state — so a broken run fails at the offending round,
not hundreds of rounds later in some aggregate metric.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Optional

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from repro.datacenter.cluster import DataCenter
    from repro.simulator.engine import Simulation

__all__ = [
    "Observer",
    "InvariantViolation",
    "check_datacenter_invariants",
    "InvariantObserver",
]


class Observer(abc.ABC):
    """End-of-round sampling hook."""

    @abc.abstractmethod
    def observe(self, round_index: int, sim: "Simulation") -> None:
        """Record whatever this observer measures for ``round_index``."""

    def on_simulation_end(self, sim: "Simulation") -> None:
        """Optional hook after the last round.  Default: no-op."""


class InvariantViolation(AssertionError):
    """A data-centre conservation law was broken.

    Subclasses :class:`AssertionError` so pytest renders it as a test
    failure and existing assertion-based helpers stay interchangeable.
    """


def _violation(round_index: Optional[int], message: str) -> InvariantViolation:
    where = "" if round_index is None else f"round {round_index}: "
    return InvariantViolation(where + message)


def _check_node_pm_coherence(
    sim: "Simulation", round_index: Optional[int]
) -> None:
    for node in sim.nodes:
        pm = node.payload
        if pm is None or not hasattr(pm, "asleep"):
            continue  # engine-only populations carry no PM payloads
        if node.is_sleeping and not pm.asleep:
            raise _violation(
                round_index,
                f"node {node.node_id} is sleeping but PM is marked awake",
            )
        if pm.asleep and node.is_up:
            raise _violation(
                round_index,
                f"PM {pm.pm_id} is asleep but node {node.node_id} is UP",
            )


def _check_state(
    dc: "DataCenter",
    sim: Optional["Simulation"],
    round_index: Optional[int],
) -> None:
    """Every structural/numeric law, as whole-array operations.

    The membership lists and the ``host`` column are independent
    structural records of the same placement; the check verifies them
    against each other (conservation, back-references, sleeping-empty)
    and then compares the store's derived-state planes — the view the
    protocols actually read — with a fresh recompute, exactly, all
    without touching a per-PM Python loop.
    """
    store = dc.store
    n_pms, n_vms = store.n_pms, store.n_vms
    indptr, indices = store.csr()
    counts = np.diff(indptr)

    seen = np.bincount(indices, minlength=n_vms) if indices.size else np.zeros(
        n_vms, dtype=np.int64
    )
    if indices.size != n_vms or np.any(seen != 1):
        dupes = sorted(np.flatnonzero(seen > 1).tolist())
        missing = sorted(np.flatnonzero(seen == 0).tolist())
        raise _violation(
            round_index,
            f"VM conservation broken: duplicated={dupes} missing={missing}",
        )

    owner = np.repeat(np.arange(n_pms, dtype=np.int64), counts)
    mismatch = store.host[indices] != owner
    if np.any(mismatch):
        k = int(np.flatnonzero(mismatch)[0])
        raise _violation(
            round_index,
            f"VM {int(indices[k])} on PM {int(owner[k])} claims host "
            f"{int(store.host[indices[k]])}",
        )

    asleep_hosting = store.pm_asleep & (counts > 0)
    if np.any(asleep_hosting):
        p = int(np.flatnonzero(asleep_hosting)[0])
        raise _violation(
            round_index,
            f"sleeping PM {p} still hosts VMs {sorted(store.members[p])}",
        )

    # Utilisation-view consistency: the planes the protocols read against
    # a fresh member-order recompute, bit for bit (a stale plane is a
    # writer that skipped the dirty flag, not rounding).
    stale = store.stale_planes((indptr, indices))
    if stale:
        raise _violation(
            round_index,
            f"utilisation view is stale: plane(s) {stale} differ from a "
            "recompute over the current demand and membership",
        )

    if sim is not None:
        _check_node_pm_coherence(sim, round_index)


def _check_migration_records(
    migrations,
    round_index: Optional[int],
    *,
    start: int = 0,
    prev_round: Optional[int] = None,
) -> Optional[int]:
    """Check ``migrations[start:]``; returns the last round stamp seen.

    The ``start``/``prev_round`` cursor lets :class:`InvariantObserver`
    check only the records appended since its previous observation —
    without it the per-round cost grows with the whole migration log.
    """
    last = prev_round
    for m in migrations[start:]:
        if last is not None and m.round_index < last:
            raise _violation(round_index, "migration log round stamps out of order")
        last = m.round_index
        if m.src_pm == m.dst_pm:
            raise _violation(
                round_index, f"self-migration of VM {m.vm_id} on PM {m.src_pm}"
            )
        if not m.duration_s > 0:
            raise _violation(
                round_index,
                f"migration of VM {m.vm_id} has non-positive duration {m.duration_s}",
            )
    return last


def check_datacenter_invariants(
    dc: "DataCenter",
    sim: Optional["Simulation"] = None,
    round_index: Optional[int] = None,
) -> None:
    """Check every conservation law; raise :class:`InvariantViolation` on
    the first breach.

    The laws (promoted from the integration test-suite so any run — not
    just a test — can assert them):

    * **VM conservation** — every VM is hosted by exactly one PM; none is
      lost or duplicated, and host back-references agree.
    * **Sleeping PMs are empty** — a switched-off PM hosts no VMs.
    * **Utilisation-view consistency** — a PM's demand vector equals the
      sum of its VMs' absolute demands (the gossip state protocols read
      these views; a drifted cache would mis-place VMs silently).
    * **Migration-record sanity** — round stamps are monotone, no
      self-migrations, durations positive.
    * **Node/PM state coherence** (when ``sim`` is given) — a sleeping
      node's PM is marked asleep and an asleep PM's node is not UP;
      failed nodes are exempt (a crash leaves the PM flag wherever the
      crash found it).

    The structural laws are checked as whole-array operations and the
    utilisation view is the store's derived-state planes, compared
    *exactly* with a fresh member-order recompute (no tolerance: a stale
    plane is a bug, not rounding).
    """
    _check_state(dc, sim, round_index)
    _check_migration_records(dc.migrations, round_index)


class InvariantObserver(Observer):
    """Checks :func:`check_datacenter_invariants` at the end of every round.

    Attach via ``sim.add_observer(InvariantObserver(dc))`` (the runner
    does this when a scenario sets ``check_invariants=True``).  Strictly
    read-only; the only state it keeps is bookkeeping about the checks
    themselves.
    """

    def __init__(self, dc: "DataCenter") -> None:
        self.dc = dc
        self.rounds_checked = 0
        self.last_round_checked: Optional[int] = None
        # Migration-log cursor: records before this index were already
        # checked on a previous round, so each observation only scans the
        # new tail (the full log is re-verified by any standalone
        # check_datacenter_invariants call).
        self._migrations_checked = 0
        self._last_migration_round: Optional[int] = None
        self._first_checked_record: Optional[object] = None

    def observe(self, round_index: int, sim: "Simulation") -> None:
        dc = self.dc
        _check_state(dc, sim, round_index)
        n = len(dc.migrations)
        if self._migrations_checked > 0 and (
            n == 0 or dc.migrations[0] is not self._first_checked_record
        ):
            # The log was cleared (dc.reset_accounting at the warmup/eval
            # boundary, or a checkpoint restore): restart the cursor.
            self._migrations_checked = 0
            self._last_migration_round = None
            self._first_checked_record = None
        self._last_migration_round = _check_migration_records(
            dc.migrations,
            round_index,
            start=self._migrations_checked,
            prev_round=self._last_migration_round,
        )
        self._migrations_checked = n
        if n > 0:
            self._first_checked_record = dc.migrations[0]
        self.rounds_checked += 1
        self.last_round_checked = round_index
