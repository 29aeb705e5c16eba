"""End-to-end integration tests: taskgen → partition → allocate →
simulate → detect → metrics."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core import (
    HydraAllocator,
    OptimalAllocator,
    SingleCoreAllocator,
    build_singlecore_system,
)
from repro.experiments.runner import build_hydra_system
from repro.metrics.cdf import EmpiricalCDF
from repro.model import SystemModel
from repro.partition import partition_tasks
from repro.sim.attacks import sample_attacks, surfaces_of
from repro.sim.detection import detection_times
from repro.sim.runner import simulate_allocation
from repro.taskgen import (
    generate_workload,
    table1_security_tasks,
    uav_rt_tasks,
)
from sim_jobs import finished_jobs_of


class TestUavPipeline:
    """The full Fig. 1 pipeline on the case-study workload."""

    @pytest.fixture(scope="class")
    def uav_detection(self):
        from repro.model import Platform

        platform = Platform(2)
        rt_tasks = uav_rt_tasks()
        security = table1_security_tasks()

        partition = partition_tasks(rt_tasks, platform)
        hydra_system = SystemModel(
            platform=platform,
            rt_partition=partition,
            security_tasks=security,
        )
        hydra_alloc = HydraAllocator().allocate(hydra_system)

        single_system = build_singlecore_system(platform, rt_tasks, security)
        single_alloc = SingleCoreAllocator().allocate(single_system)

        results = {}
        for label, system, allocation in (
            ("hydra", hydra_system, hydra_alloc),
            ("single", single_system, single_alloc),
        ):
            sim = simulate_allocation(
                system, allocation, duration=60_000.0, rng=5
            )
            attacks = sample_attacks(
                30, (0.0, 20_000.0), surfaces_of(security), rng=5
            )
            results[label] = detection_times(sim, attacks, security)
        return results

    def test_both_schemes_schedulable_and_detect(self, uav_detection):
        for times in uav_detection.values():
            assert all(math.isfinite(t) for t in times)

    def test_hydra_cdf_dominates_singlecore(self, uav_detection):
        hydra = EmpiricalCDF(uav_detection["hydra"])
        single = EmpiricalCDF(uav_detection["single"])
        grid = np.linspace(500.0, 30_000.0, 30)
        hydra_series = [hydra(x) for x in grid]
        single_series = [single(x) for x in grid]
        # Paper Fig. 1: HYDRA's CDF sits above SingleCore's.  With a
        # finite sample allow pointwise slack but require dominance in
        # aggregate and no large inversion.
        assert sum(hydra_series) >= sum(single_series)
        assert all(h >= s - 0.15 for h, s in zip(hydra_series, single_series))


class TestSyntheticPipeline:
    def test_workload_to_allocation_roundtrip(self):
        rng = np.random.default_rng(0)
        schedulable = 0
        for _ in range(10):
            workload = generate_workload(4, 2.0, rng)
            system = build_hydra_system(workload)
            assert system is not None  # moderate utilisation always packs
            allocation = HydraAllocator().allocate(system)
            if allocation.schedulable:
                schedulable += 1
                assert len(allocation.assignments) == len(
                    workload.security_tasks
                )
        assert schedulable >= 8

    def test_simulation_respects_allocated_periods(self):
        rng = np.random.default_rng(1)
        workload = generate_workload(2, 1.0, rng)
        system = build_hydra_system(workload)
        allocation = HydraAllocator().allocate(system)
        assert allocation.schedulable
        result = simulate_allocation(
            system, allocation, duration=20_000.0
        )
        for assignment in allocation.assignments:
            jobs = finished_jobs_of(result, assignment.task.name)
            assert jobs, assignment.task.name
            releases = [j.release for j in jobs]
            gaps = [b - a for a, b in zip(releases, releases[1:])]
            for gap in gaps:
                assert gap == pytest.approx(assignment.period)

    def test_optimal_end_to_end_small(self):
        from repro.taskgen.synthetic import SyntheticConfig

        rng = np.random.default_rng(2)
        config = SyntheticConfig(security_task_count=(2, 4))
        workload = generate_workload(2, 1.2, rng, config)
        system = build_hydra_system(workload)
        assert system is not None
        hydra = HydraAllocator().allocate(system)
        optimal = OptimalAllocator().allocate(system)
        if hydra.schedulable:
            assert optimal.schedulable
            assert optimal.cumulative_tightness() >= (
                hydra.cumulative_tightness() - 1e-9
            )

    def test_singlecore_path_on_synthetic(self):
        rng = np.random.default_rng(3)
        workload = generate_workload(2, 0.8, rng)
        system = build_singlecore_system(
            workload.platform, workload.rt_tasks, workload.security_tasks
        )
        assert system is not None
        allocation = SingleCoreAllocator().allocate(system)
        assert allocation.schedulable
        result = simulate_allocation(
            system, allocation, duration=30_000.0
        )
        assert not result.misses
