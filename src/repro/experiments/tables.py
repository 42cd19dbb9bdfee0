"""Table drivers — Table I (the SLA metric grid).

Table I reports SLAV = SLAVO x SLALM for every cluster size x workload
ratio x policy.  The expected ordering, per the paper:
GLAP < EcoCloud < PABFD < GRMP, with SLAV growing with workload ratio.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.experiments.figures import _cells, _format_rows
from repro.experiments.parallel import SweepResults

__all__ = ["table1_sla", "format_table1"]


def table1_sla(results: SweepResults) -> List[dict]:
    """Rows: one per scenario, with each policy's median SLAV."""
    rows: Dict[str, dict] = {}
    for key, policy, runs in _cells(results):
        row = rows.setdefault(key["scenario"], dict(key))
        row[policy] = float(np.median([r.slav for r in runs]))
    return list(rows.values())


def format_table1(rows: List[dict], policies: Optional[Sequence[str]] = None) -> str:
    """Table I's text; ``policies`` (the columns) default to every
    policy in the rows, in their order."""
    if policies is None:
        policies = [k for k in rows[0] if k not in ("scenario", "n_pms", "ratio")] if rows else []
    table = [
        [r["scenario"]] + [f"{r[p]:.3g}" for p in policies]
        for r in rows
    ]
    return _format_rows(
        ["size-ratio"] + list(policies),
        table,
        "Table I — SLA metric (SLAV) for various cluster sizes and workload ratios",
    )
