"""CPU servers and pools."""

import pytest

from repro.sim.kernel import Simulator
from repro.sim.resources import CpuPool, CpuServer


def test_cpu_server_serializes_work():
    sim = Simulator()
    cpu = CpuServer(sim)
    done = []
    cpu.execute(10.0).add_done_callback(lambda f: done.append(sim.now))
    cpu.execute(5.0).add_done_callback(lambda f: done.append(sim.now))
    sim.run()
    assert done == [10.0, 15.0]


def test_cpu_server_idle_gap_not_charged():
    sim = Simulator()
    cpu = CpuServer(sim)
    done = []
    sim.call_after(100.0, lambda: cpu.execute(5.0).add_done_callback(
        lambda f: done.append(sim.now)))
    sim.run()
    assert done == [105.0]


def test_cpu_server_busy_time_accounting():
    sim = Simulator()
    cpu = CpuServer(sim)
    cpu.execute(10.0)
    cpu.execute(20.0)
    sim.run()
    assert cpu.busy_time == 30.0
    assert cpu.utilization(60.0) == pytest.approx(0.5)


def test_cpu_server_rejects_negative_cost():
    with pytest.raises(ValueError):
        CpuServer(Simulator()).execute(-1.0)


def test_cpu_server_charge_returns_finish_time():
    sim = Simulator()
    cpu = CpuServer(sim)
    assert cpu.charge(10.0) == 10.0
    assert cpu.charge(5.0) == 15.0


def test_pool_parallelism():
    sim = Simulator()
    pool = CpuPool(sim, size=2)
    done = []
    for _ in range(4):
        pool.execute(10.0).add_done_callback(lambda f: done.append(sim.now))
    sim.run()
    # Two at a time: finish at 10, 10, 20, 20.
    assert done == [10.0, 10.0, 20.0, 20.0]


def test_pool_single_server_is_serial():
    sim = Simulator()
    pool = CpuPool(sim, size=1)
    done = []
    pool.execute(3.0).add_done_callback(lambda f: done.append(sim.now))
    pool.execute(3.0).add_done_callback(lambda f: done.append(sim.now))
    sim.run()
    assert done == [3.0, 6.0]


def test_pool_requires_positive_size():
    with pytest.raises(ValueError):
        CpuPool(Simulator(), size=0)


def test_pool_utilization():
    sim = Simulator()
    pool = CpuPool(sim, size=2)
    pool.execute(10.0)
    sim.run()
    assert pool.utilization(10.0) == pytest.approx(0.5)
