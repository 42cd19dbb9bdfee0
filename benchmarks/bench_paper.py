"""The paper's section V: one case per exhibit (Figs. 5-10, Table I)
and the shape report, all read from one registry.

Each exhibit case runs the exhibit's driver once under pytest-benchmark
timing, prints its paper-comparable table, writes it to
``results/<stem>_<scale>.txt`` and requires every claim
:mod:`repro.experiments.expectations` tags with the exhibit: Fig. 5's
at every scale, the rest not at the ``quick`` smoke scale.  The shape
case prints every claim and allows at most one to miss; the claims only
the report judges (tagged ``shape``) are gated there alone.
"""

import pytest

from repro.experiments.expectations import check_shape, format_shape_report
from repro.experiments.figures import EXHIBITS

from common import SHAPE_CHECKS, get_convergence, get_sweep, once, report


@pytest.mark.parametrize("exhibit", list(EXHIBITS))
def test_exhibit(benchmark, exhibit):
    entry = EXHIBITS[exhibit]
    if exhibit == "5":
        data = once(benchmark, get_convergence)
        checks = check_shape(convergence=data)
    else:
        sweep = get_sweep()
        data = once(benchmark, entry.driver, sweep)
        checks = check_shape(sweep)
    report(entry.stem, entry.formatter(data))

    if SHAPE_CHECKS or exhibit == "5":
        missed = [c for c in checks if c.exhibit == exhibit and not c.holds]
        assert not missed, format_shape_report(missed)


def test_shape_report(benchmark):
    checks = once(benchmark, check_shape, get_sweep(), get_convergence())
    report("shape_report", format_shape_report(checks))

    if SHAPE_CHECKS:
        missed = sum(not c.holds for c in checks)
        assert missed <= 1, (
            "more than one of the paper's qualitative claims failed:\n"
            + format_shape_report(checks)
        )
