"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.datacenter.cluster import DataCenter
from repro.datacenter.columnar import ColumnarStore
from repro.datacenter.pm import PhysicalMachine
from repro.datacenter.resources import HP_PROLIANT_ML110_G5, MachineSpec
from repro.datacenter.vm import VirtualMachine
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


def make_pm(pm_id: int = 0, spec: MachineSpec = HP_PROLIANT_ML110_G5) -> PhysicalMachine:
    """PM ``pm_id`` of a fresh small store (16 unplaced VMs; ``pm.store``
    is what ``make_vm(..., store=)`` takes to get VMs it can host)."""
    return ColumnarStore(pm_id + 1, 16, pm_spec=spec).pms[pm_id]


def make_vm(vm_id: int = 0, cpu: float = 0.5, mem: float = 0.4,
            observations: int = 1, store: ColumnarStore | None = None) -> VirtualMachine:
    """VM ``vm_id`` of ``store`` (default: a fresh store just big enough)
    with ``observations`` identical demand samples recorded."""
    if store is None:
        store = ColumnarStore(1, vm_id + 1)
    vm = store.vms[vm_id]
    for _ in range(observations):
        vm.observe_demand(np.array([cpu, mem]), 120.0)
    return vm


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
    """A simulation whose nodes wrap the data centre's PMs."""
    nodes = [Node(pm.pm_id, payload=pm) for pm in dc.pms]
    return Simulation(nodes, np.random.default_rng(seed))


@pytest.fixture
def small_dc() -> DataCenter:
    return make_datacenter()


@pytest.fixture
def dc_and_sim():
    dc = make_datacenter()
    return dc, make_simulation(dc)
