"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.datacenter.cluster import DataCenter
from repro.datacenter.columnar import ColumnarStore
from repro.datacenter.resources import CPU
from repro.simulator.engine import Simulation
from repro.simulator.node import Node
from repro.traces.base import ArrayTrace
from repro.traces.google import GoogleLikeTraceGenerator
from repro.util.rng import RngStreams


def pytest_addoption(parser):
    parser.addoption(
        "--update-golden",
        action="store_true",
        default=False,
        help="regenerate the golden-run fixtures in tests/golden/ instead of "
        "comparing against them",
    )


@pytest.fixture
def update_golden(request) -> bool:
    return request.config.getoption("--update-golden")


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def streams() -> RngStreams:
    return RngStreams(12345)


def make_trace(n_vms: int, n_rounds: int, seed: int = 7) -> ArrayTrace:
    """A small Google-like trace."""
    return GoogleLikeTraceGenerator().generate(
        n_vms, n_rounds, np.random.default_rng(seed)
    )


def make_constant_trace(n_vms: int, n_rounds: int, cpu: float, mem: float) -> ArrayTrace:
    """A trace where every VM demands exactly (cpu, mem) every round."""
    data = np.empty((n_vms, n_rounds, 2))
    data[:, :, 0] = cpu
    data[:, :, 1] = mem
    return ArrayTrace(data)


def observe(store: ColumnarStore, vm_id: int, cpu: float, mem: float,
            round_seconds: float = 120.0) -> None:
    """Fold one ``(cpu, mem)`` demand sample into VM ``vm_id`` of ``store``
    as the VM monitor does: the ``{c, v}`` average, the current demand and
    the requested-CPU accrual, in the per-VM walk's float order.  A
    writer behind the store's back, so it marks the planes stale."""
    d = np.array([cpu, mem], dtype=np.float64)
    count = int(store.monitor_count[vm_id])
    store.avg[vm_id] = (count * store.avg[vm_id] + d) / (count + 1)
    store.monitor_count[vm_id] = count + 1
    store.cur[vm_id] = d
    store.vm_cpu_requested[vm_id] += float(d[CPU] * store.vm_spec.cpu_mips) * round_seconds
    store.invalidate_planes()


def overloaded(dc: DataCenter, pm_id: int) -> bool:
    """Whether PM ``pm_id`` is at or over capacity in any resource, on
    the store's planes made current."""
    dc.store.ensure_planes()
    return dc.store.pm_overloaded(pm_id)


def make_datacenter(
    n_pms: int = 10,
    n_vms: int = 30,
    n_rounds: int = 40,
    seed: int = 7,
    advance: bool = True,
) -> DataCenter:
    """A placed data centre with one round of demand observed."""
    dc = DataCenter(n_pms, n_vms, make_trace(n_vms, n_rounds, seed))
    dc.place_randomly(np.random.default_rng(seed))
    if advance:
        dc.advance_round()
    return dc


def make_simulation(dc: DataCenter, seed: int = 7) -> Simulation:
    """A simulation with one node per PM of the data centre."""
    nodes = [Node(pm_id) for pm_id in range(dc.n_pms)]
    return Simulation(nodes, np.random.default_rng(seed))


@pytest.fixture
def small_dc() -> DataCenter:
    return make_datacenter()


@pytest.fixture
def dc_and_sim():
    dc = make_datacenter()
    return dc, make_simulation(dc)
