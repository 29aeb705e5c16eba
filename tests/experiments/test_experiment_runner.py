"""Unit tests for the shared experiment runner."""

from __future__ import annotations

from repro.experiments.runner import build_hydra_system, spawn_streams
from repro.model.platform import Platform
from repro.taskgen.synthetic import generate_workload


class TestSpawnStreams:
    def test_count_and_independence(self):
        streams = spawn_streams(7, 4)
        assert len(streams) == 4
        draws = [s.random() for s in streams]
        assert len(set(draws)) == 4  # streams differ

    def test_reproducible(self):
        a = [s.random() for s in spawn_streams(7, 3)]
        b = [s.random() for s in spawn_streams(7, 3)]
        assert a == b

    def test_different_seeds_differ(self):
        a = [s.random() for s in spawn_streams(7, 3)]
        b = [s.random() for s in spawn_streams(8, 3)]
        assert a != b


class TestBuildHydraSystem:
    def test_moderate_load_builds(self, rng):
        workload = generate_workload(2, 1.0, rng)
        system = build_hydra_system(workload)
        assert system is not None
        assert system.platform == workload.platform
        assert system.security_tasks == workload.security_tasks

    def test_impossible_load_returns_none(self, rng):
        # A single RT task per core at u ≈ 1 plus more: force failure by
        # generating at the capacity edge repeatedly until partition
        # fails — or simply craft one directly.
        from repro.model.task import RealTimeTask, TaskSet
        from repro.taskgen.synthetic import SyntheticWorkload

        rt = TaskSet(
            [
                RealTimeTask(name=f"r{i}", wcet=7.0, period=10.0)
                for i in range(3)
            ]
        )
        workload = SyntheticWorkload(
            platform=Platform(2),
            rt_tasks=rt,
            security_tasks=TaskSet(),
            target_utilization=2.1,
        )
        assert build_hydra_system(workload) is None
