"""Microbenchmarks of the computational substrates.

These are true pytest-benchmark measurements (many rounds) of the hot
kernels every experiment leans on: period adaptation, exact RTA, the
simplex LP, the GP interior point, Randfixedsum and the event simulator.
They guard against performance regressions that would silently make the
paper-scale sweeps infeasible.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.interference import Interferer, InterferenceEnv
from repro.analysis.rta import response_time, response_times_batch
from repro.model.task import SecurityTask
from repro.opt.lp import solve_lp
from repro.opt.period import adapt_period
from repro.opt.period_gp import adapt_period_gp
from repro.sim.engine import SimTask, Simulator
from repro.taskgen.randfixedsum import randfixedsum


@pytest.fixture(scope="module")
def env() -> InterferenceEnv:
    rng = np.random.default_rng(11)
    interferers = []
    for _ in range(12):
        period = float(rng.uniform(10.0, 1000.0))
        interferers.append(Interferer(period * 0.05, period))
    return InterferenceEnv(interferers)


@pytest.fixture(scope="module")
def task() -> SecurityTask:
    return SecurityTask(
        name="s", wcet=25.0, period_des=1000.0, period_max=10_000.0
    )


def test_adapt_period_closed_form(benchmark, task, env):
    solution = benchmark(adapt_period, task, env)
    assert solution is not None


def test_adapt_period_gp_route(benchmark, task, env):
    solution = benchmark(adapt_period_gp, task, env)
    assert solution is not None


def test_exact_rta(benchmark, env):
    result = benchmark(response_time, 25.0, env.interferers)
    assert result < float("inf")


def test_rta_batch(benchmark):
    """The vectorised whole-core RTA behind the ``rta-batch`` admission
    test, pinned by the CI benchmark gate."""
    rng = np.random.default_rng(7)
    n = 64
    periods = np.sort(rng.uniform(10.0, 2000.0, size=n))
    wcets = periods * rng.uniform(0.002, 0.012, size=n)

    times = benchmark(response_times_batch, wcets, periods)
    assert times.shape == (n,)
    assert np.all(times[np.isfinite(times)] >= wcets[np.isfinite(times)])


def test_simplex_lp(benchmark):
    rng = np.random.default_rng(5)
    n = 12
    c = -rng.uniform(0.5, 2.0, size=n)
    a_ub = rng.uniform(0.0, 1.0, size=(n, n))
    b_ub = np.full(n, float(n))
    bounds = [(0.0, 3.0)] * n

    result = benchmark(solve_lp, c, a_ub, b_ub, None, None, bounds)
    assert result.is_optimal


def test_randfixedsum(benchmark):
    rng = np.random.default_rng(5)
    out = benchmark(randfixedsum, 40, 6.0, 50, rng)
    assert out.shape == (50, 40)


def test_randfixedsum_single(benchmark):
    """The one-vector draw every synthetic task set makes (the band
    walk, which builds only columns 0..k+1 of Stafford's table on
    Python floats); unpinned, a tripwire next to the calibration."""
    rng = np.random.default_rng(5)
    out = benchmark(randfixedsum, 40, 6.0, 1, rng)
    assert out.shape == (1, 40)


def test_simulator_throughput(benchmark):
    tasks = [
        SimTask(name=f"t{i}", wcet=1.0 + i * 0.3, period=10.0 * (i + 1),
                priority=i, core=i % 2)
        for i in range(8)
    ]

    def run():
        return Simulator(tasks, num_cores=2, duration=10_000.0).run()

    result = benchmark(run)
    assert not result.misses


def test_hydra_allocation_synthetic(benchmark):
    from repro.core.hydra import HydraAllocator
    from repro.experiments.runner import build_hydra_system
    from repro.taskgen.synthetic import generate_workload

    workload = generate_workload(8, 4.0, np.random.default_rng(3))
    system = build_hydra_system(workload)
    assert system is not None
    allocator = HydraAllocator()

    allocation = benchmark(allocator.allocate, system)
    assert allocation.schedulable
