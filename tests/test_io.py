"""Round trips of the plain-JSON task codecs the workload-sample tests
byte-compare (``tests/workload_sample.py``)."""

from __future__ import annotations

import pytest

from repro.errors import ValidationError
from repro.model import RealTimeTask, SecurityTask, TaskSet
from workload_sample import (
    task_from_dict,
    task_to_dict,
    taskset_from_dict,
    taskset_to_dict,
)


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
