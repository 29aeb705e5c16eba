"""Bench: simulating a schedule and scoring detections over it.

A detection-latency sweep simulates every allocated system, then scores
every sampled attack against the schedule.  Three benchmarks measure
the simulation of the 2-core UAV system over 60 s:

* ``test_simulate_security_band`` — the security band
  (:func:`repro.sim.band.simulate_security`), which detection points
  take: only the monitors, in the idle time the real-time band leaves;
* ``test_simulate_kernel`` — ``Simulator.run()``, which takes the
  per-core kernel for this input, and the in-run yardstick for the
  band's ``check_bench.py`` speedup floor;
* ``test_simulate_reference`` — the reference event loop
  (``Simulator.run_reference()``), the in-run yardstick for the
  kernel's ``check_bench.py`` speedup floor.

The kernel is asserted bit-identical to the reference run on each
core's tasks alone, and the band bit-identical to the kernel's
security jobs.  The per-attack query is the
other hot path.  Two more benchmarks measure it on the same workload —
one long UAV-style simulation of the monitors, a few hundred attacks —
through the two implementations:

* ``test_detection_scoring`` — the indexed path (one
  :class:`~repro.sim.detection.DetectionIndex` build, then a bisect
  per attack), pinned against the committed baseline;
* ``test_detection_scan_reference`` — the reference per-attack scan
  over all jobs (``detection_time`` in a loop), kept as the in-run
  yardstick for the ``check_bench.py`` speedup floor.

Both are asserted result-identical here, so the ratio gate can never
trade correctness for speed.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments.fig1 import build_uav_systems
from repro.sim.attacks import sample_attacks, surfaces_of
from repro.sim.band import simulate_security
from repro.sim.detection import (
    DETECTION_POLICIES,
    build_surface_map,
    detection_time,
    detection_times,
)
from repro.sim.engine import Simulator
from repro.sim.runner import build_sim_tasks, simulate_allocation

_DURATION = 60_000.0
_ATTACKS = 512


@pytest.fixture(scope="module")
def uav_sim_tasks():
    """The 2-core UAV system as simulator tasks."""
    system, allocation, _, _ = build_uav_systems(2)
    return build_sim_tasks(system, allocation)


def test_simulate_reference(benchmark, uav_sim_tasks):
    """The global event loop the kernel is measured against."""
    result = benchmark(
        lambda: Simulator(
            uav_sim_tasks, num_cores=2, duration=_DURATION
        ).run_reference()
    )
    assert result.jobs and not result.misses


def test_simulate_security_band(benchmark, uav_sim_tasks):
    """The security band: only the monitors, in the idle time the
    real-time band leaves."""
    result = benchmark(
        lambda: simulate_security(uav_sim_tasks, 2, _DURATION)
    )
    kernel = Simulator(uav_sim_tasks, num_cores=2, duration=_DURATION).run()
    security = [task.name for task in uav_sim_tasks if task.kind == "security"]
    assert len(result.jobs) == sum(
        1 for job in kernel.jobs if job.task in security
    )
    for name in security:
        ours, theirs = result.track(name), kernel.track(name)
        assert list(ours.release) == list(theirs.release)
        assert list(ours.start) == list(theirs.start)
        assert list(ours.completion) == list(theirs.completion)
    assert not result.misses


def test_simulate_kernel(benchmark, uav_sim_tasks):
    """``Simulator.run()``: the per-core kernel."""
    result = benchmark(
        lambda: Simulator(uav_sim_tasks, num_cores=2, duration=_DURATION).run()
    )
    for core in range(2):
        alone = [task for task in uav_sim_tasks if task.core == core]
        names = {task.name for task in alone}
        reference = Simulator(
            alone, num_cores=2, duration=_DURATION
        ).run_reference()
        assert [job for job in result.jobs if job.task in names] == (
            reference.jobs
        )
        assert result.busy_time[core] == reference.busy_time[core]
    assert not result.misses


@pytest.fixture(scope="module")
def detection_workload():
    """One long simulated UAV schedule of the monitors, as detection
    points simulate it, plus a fixed attack sample."""
    system, allocation, _, _ = build_uav_systems(2)
    result = simulate_allocation(
        system,
        allocation,
        duration=_DURATION,
        rng=np.random.default_rng(0),
        security_only=True,
    )
    attacks = sample_attacks(
        _ATTACKS,
        (0.0, _DURATION * 0.75),
        surfaces_of(system.security_tasks),
        rng=np.random.default_rng(42),
    )
    return system, result, attacks


def test_detection_scoring(benchmark, detection_workload):
    """Pinned: index build + one bisect query per attack."""
    system, result, attacks = detection_workload

    def score():
        return {
            policy: detection_times(
                result, attacks, system.security_tasks, policy=policy
            )
            for policy in DETECTION_POLICIES
        }

    scored = benchmark(score)
    for policy in DETECTION_POLICIES:
        assert len(scored[policy]) == _ATTACKS


def test_detection_scan_reference(benchmark, detection_workload):
    """The O(jobs × attacks) reference scan the index replaced."""
    system, result, attacks = detection_workload
    surface_map = build_surface_map(system.security_tasks)

    def score():
        return {
            policy: [
                detection_time(result, attack, surface_map, policy=policy)
                for attack in attacks
            ]
            for policy in DETECTION_POLICIES
        }

    scanned = benchmark(score)
    # The indexed path must be result-identical to the scan.
    for policy in DETECTION_POLICIES:
        assert scanned[policy] == detection_times(
            result, attacks, system.security_tasks, policy=policy
        )
