"""Unit tests for Partition and SystemModel."""

from __future__ import annotations

import pytest

from repro.errors import ValidationError
from repro.model.platform import Platform
from repro.model.system import Partition, SystemModel
from repro.model.task import (
    RealTimeTask,
    SecurityTask,
    TaskSet,
    total_utilization,
)


@pytest.fixture
def platform() -> Platform:
    return Platform(2)


@pytest.fixture
def rt_tasks() -> TaskSet:
    return TaskSet(
        [
            RealTimeTask(name="a", wcet=1.0, period=10.0),
            RealTimeTask(name="b", wcet=2.0, period=20.0),
            RealTimeTask(name="c", wcet=30.0, period=100.0),
        ]
    )


@pytest.fixture
def partition(platform, rt_tasks) -> Partition:
    return Partition(platform, rt_tasks, {"a": 0, "b": 0, "c": 1})


class TestPartition:
    def test_core_of(self, partition):
        assert partition.core_of("a") == 0
        assert partition.core_of("c") == 1

    def test_core_of_task_object(self, partition, rt_tasks):
        assert partition.core_of(rt_tasks["b"]) == 0

    def test_core_of_unknown_raises(self, partition):
        with pytest.raises(ValidationError):
            partition.core_of("zzz")

    def test_tasks_on(self, partition):
        assert [t.name for t in partition.tasks_on(0)] == ["a", "b"]
        assert [t.name for t in partition.tasks_on(1)] == ["c"]

    def test_tasks_on_validates_core(self, partition):
        with pytest.raises(ValidationError):
            partition.tasks_on(2)

    def test_utilization_of(self, partition):
        assert partition.utilization_of(0) == pytest.approx(0.1 + 0.1)
        assert partition.utilization_of(1) == pytest.approx(0.3)

    def test_utilizations_list(self, partition):
        assert partition.utilizations() == pytest.approx([0.2, 0.3])

    def test_missing_assignment_raises(self, platform, rt_tasks):
        with pytest.raises(ValidationError):
            Partition(platform, rt_tasks, {"a": 0, "b": 0})

    def test_unknown_assignment_raises(self, platform, rt_tasks):
        with pytest.raises(ValidationError):
            Partition(
                platform, rt_tasks, {"a": 0, "b": 0, "c": 1, "ghost": 1}
            )

    def test_invalid_core_raises(self, platform, rt_tasks):
        with pytest.raises(ValidationError):
            Partition(platform, rt_tasks, {"a": 0, "b": 0, "c": 2})

    def test_as_mapping_is_a_copy(self, partition):
        mapping = partition.as_mapping()
        mapping["a"] = 1
        assert partition.core_of("a") == 0

    def test_equality(self, platform, rt_tasks, partition):
        clone = Partition(platform, rt_tasks, {"a": 0, "b": 0, "c": 1})
        assert clone == partition

    def test_accepts_plain_iterable_of_tasks(self, platform):
        tasks = [RealTimeTask(name="x", wcet=1.0, period=10.0)]
        partition = Partition(platform, tasks, {"x": 1})
        assert partition.core_of("x") == 1


class TestSystemModel:
    def test_valid_construction(self, two_core_system):
        assert two_core_system.platform.num_cores == 2
        assert len(two_core_system.security_tasks) == 2

    def test_platform_mismatch_raises(self, partition):
        with pytest.raises(ValidationError):
            SystemModel(
                platform=Platform(3),
                rt_partition=partition,
                security_tasks=TaskSet(),
            )

    def test_rejects_rt_task_in_security_set(self, platform, partition):
        with pytest.raises(ValidationError):
            SystemModel(
                platform=platform,
                rt_partition=partition,
                security_tasks=TaskSet(
                    [RealTimeTask(name="x", wcet=1.0, period=10.0)]
                ),
            )

    def test_rejects_name_clash(self, platform, partition):
        with pytest.raises(ValidationError):
            SystemModel(
                platform=platform,
                rt_partition=partition,
                security_tasks=TaskSet(
                    [
                        SecurityTask(
                            name="a",  # clashes with RT task "a"
                            wcet=1.0,
                            period_des=100.0,
                            period_max=1000.0,
                        )
                    ]
                ),
            )

    def test_rejects_weight_for_unknown_task(self, platform, partition):
        with pytest.raises(ValidationError):
            SystemModel(
                platform=platform,
                rt_partition=partition,
                security_tasks=TaskSet(),
                weights={"ghost": 2.0},
            )

    def test_weight_of_defaults_to_task_weight(self, two_core_system):
        task = two_core_system.security_tasks["sec_hi"]
        assert two_core_system.weight_of(task) == 1.0
        assert two_core_system.weight_of("sec_hi") == 1.0

    def test_weight_of_uses_override(self, rt_pair, security_pair):
        platform = Platform(2)
        partition = Partition(
            platform, rt_pair, {"rt_fast": 0, "rt_slow": 1}
        )
        system = SystemModel(
            platform=platform,
            rt_partition=partition,
            security_tasks=security_pair,
            weights={"sec_hi": 7.0},
        )
        assert system.weight_of("sec_hi") == 7.0
        assert system.weight_of("sec_lo") == 1.0

    def test_total_utilizations(self, two_core_system):
        assert total_utilization(two_core_system.rt_tasks) == (
            pytest.approx(0.2)
        )
        expected_sec = 5.0 / 100.0 + 8.0 / 150.0
        assert total_utilization(two_core_system.security_tasks) == (
            pytest.approx(expected_sec)
        )

    def test_rt_tasks_property(self, two_core_system):
        assert set(two_core_system.rt_tasks.names) == {"rt_fast", "rt_slow"}
