"""Unit tests for serialisation round-trips."""

from __future__ import annotations

import pytest

from repro.core.hydra import HydraAllocator
from repro.errors import ValidationError
from repro.io import (
    allocation_from_dict,
    allocation_to_dict,
    load_json,
    partition_from_dict,
    partition_to_dict,
    rows_to_csv,
    save_json,
    system_from_dict,
    system_to_dict,
    task_from_dict,
    task_to_dict,
    taskset_from_dict,
    taskset_to_dict,
)
from repro.model import RealTimeTask, SecurityTask, TaskSet


class TestTaskRoundTrip:
    def test_rt_task(self):
        task = RealTimeTask(name="t", wcet=2.0, period=10.0, deadline=8.0)
        assert task_from_dict(task_to_dict(task)) == task

    def test_rt_task_implicit_deadline(self):
        task = RealTimeTask(name="t", wcet=2.0, period=10.0)
        restored = task_from_dict(task_to_dict(task))
        assert restored.deadline == 10.0

    def test_security_task(self):
        task = SecurityTask(
            name="s", wcet=5.0, period_des=100.0, period_max=1000.0,
            weight=2.0, surface="fs",
        )
        restored = task_from_dict(task_to_dict(task))
        assert restored == task
        assert restored.surface == "fs"
        assert restored.weight == 2.0

    def test_unknown_type_rejected(self):
        with pytest.raises(ValidationError):
            task_from_dict({"type": "alien", "name": "x"})

    def test_non_task_rejected(self):
        with pytest.raises(ValidationError):
            task_to_dict("not a task")  # type: ignore[arg-type]

    def test_taskset_roundtrip(self, rt_pair):
        assert taskset_from_dict(taskset_to_dict(rt_pair)) == rt_pair

    def test_mixed_taskset_roundtrip(self):
        tasks = TaskSet(
            [
                RealTimeTask(name="r", wcet=1.0, period=10.0),
                SecurityTask(
                    name="s", wcet=1.0, period_des=50.0, period_max=500.0
                ),
            ]
        )
        assert taskset_from_dict(taskset_to_dict(tasks)) == tasks


class TestSystemRoundTrip:
    def test_partition(self, two_core_system):
        partition = two_core_system.rt_partition
        restored = partition_from_dict(partition_to_dict(partition))
        assert restored == partition

    def test_system(self, loaded_system):
        restored = system_from_dict(system_to_dict(loaded_system))
        assert restored.platform == loaded_system.platform
        assert restored.rt_partition == loaded_system.rt_partition
        assert restored.security_tasks == loaded_system.security_tasks

    def test_system_with_weights(self, loaded_system):
        from dataclasses import replace

        weighted = replace(loaded_system, weights={"s0": 3.0})
        restored = system_from_dict(system_to_dict(weighted))
        assert restored.weight_of("s0") == 3.0

    def test_restored_system_allocates_identically(self, loaded_system):
        restored = system_from_dict(system_to_dict(loaded_system))
        original = HydraAllocator().allocate(loaded_system)
        again = HydraAllocator().allocate(restored)
        assert original.cores() == again.cores()
        assert original.periods() == pytest.approx(again.periods())


class TestAllocationRoundTrip:
    def test_schedulable_allocation(self, loaded_system):
        allocation = HydraAllocator().allocate(loaded_system)
        restored = allocation_from_dict(allocation_to_dict(allocation))
        assert restored.schedulable
        assert restored.cores() == allocation.cores()
        assert restored.periods() == pytest.approx(allocation.periods())
        assert restored.cumulative_tightness() == pytest.approx(
            allocation.cumulative_tightness()
        )

    def test_unschedulable_allocation(self):
        from repro.model.allocation import Allocation

        failed = Allocation(scheme="x", schedulable=False, failed_task="s")
        restored = allocation_from_dict(allocation_to_dict(failed))
        assert not restored.schedulable
        assert restored.failed_task == "s"

    def test_info_survives_with_stringly_fallback(self, loaded_system):
        from repro.model.allocation import Allocation, SecurityAssignment

        allocation = Allocation(
            scheme="x",
            schedulable=True,
            assignments=(
                SecurityAssignment(
                    task=loaded_system.security_tasks["s0"],
                    core=0,
                    period=300.0,
                ),
            ),
            info={"nested": {"a": 1}, "weird": object()},
        )
        data = allocation_to_dict(allocation)
        assert data["info"]["nested"] == {"a": 1}
        assert isinstance(data["info"]["weird"], str)


class TestFiles:
    def test_json_file_roundtrip(self, tmp_path, loaded_system):
        path = save_json(system_to_dict(loaded_system), tmp_path / "sys.json")
        restored = system_from_dict(load_json(path))
        assert restored.security_tasks == loaded_system.security_tasks

    def test_json_is_actually_json(self, tmp_path, two_core_system):
        import json

        path = save_json(
            system_to_dict(two_core_system), tmp_path / "sys.json"
        )
        parsed = json.loads(path.read_text())
        assert "partition" in parsed

    def test_rows_to_csv(self, tmp_path):
        path = rows_to_csv(
            ["u", "ratio"], [[0.5, 1.0], [1.5, 0.25]], tmp_path / "r.csv"
        )
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "u,ratio"
        assert lines[1] == "0.5,1.0"
        assert len(lines) == 3

    def test_csv_of_fig2_panel(self, tmp_path):
        from repro.experiments.config import SCALES
        from repro.experiments.registry import get_experiment

        result = get_experiment("fig2").run_domain(SCALES["smoke"])
        panel = result.panel(2)
        path = rows_to_csv(
            ["utilization", "hydra", "single"],
            [(p.utilization, p.ratio_hydra, p.ratio_single) for p in panel],
            tmp_path / "fig2.csv",
        )
        assert len(path.read_text().strip().splitlines()) == len(panel) + 1
