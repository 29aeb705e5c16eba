"""Serialisation: JSON for models and allocations, CSV for result rows.

A reproduction is only auditable if its inputs and outputs can leave
the process: this module round-trips every model object through plain
JSON-compatible dictionaries (stable keys, no pickling) and exports
experiment series as CSV for external plotting.

Round-trip guarantees (tested): ``X == from_dict(to_dict(X))`` for
tasks, task sets, partitions, systems; allocations round-trip through
their task/core/period content.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Any, Iterable, Mapping, Sequence

from repro.errors import ValidationError
from repro.model.allocation import Allocation, SecurityAssignment
from repro.model.platform import Platform
from repro.model.system import Partition, SystemModel
from repro.model.task import RealTimeTask, SecurityTask, TaskSet

__all__ = [
    "task_to_dict",
    "task_from_dict",
    "taskset_to_dict",
    "taskset_from_dict",
    "partition_to_dict",
    "partition_from_dict",
    "system_to_dict",
    "system_from_dict",
    "allocation_to_dict",
    "allocation_from_dict",
    "save_json",
    "load_json",
    "rows_to_csv",
]


# -- tasks -------------------------------------------------------------------


def task_to_dict(task: RealTimeTask | SecurityTask) -> dict[str, Any]:
    """Serialise one task; the ``type`` key discriminates the kind."""
    if isinstance(task, RealTimeTask):
        return {
            "type": "rt",
            "name": task.name,
            "wcet": task.wcet,
            "period": task.period,
            "deadline": task.deadline,
        }
    if isinstance(task, SecurityTask):
        return {
            "type": "security",
            "name": task.name,
            "wcet": task.wcet,
            "period_des": task.period_des,
            "period_max": task.period_max,
            "weight": task.weight,
            "surface": task.surface,
        }
    raise ValidationError(f"not a task: {task!r}")


def task_from_dict(data: Mapping[str, Any]) -> RealTimeTask | SecurityTask:
    """Inverse of :func:`task_to_dict`."""
    kind = data.get("type")
    if kind == "rt":
        return RealTimeTask(
            name=data["name"],
            wcet=float(data["wcet"]),
            period=float(data["period"]),
            deadline=float(data["deadline"]) if data.get("deadline") else None,
        )
    if kind == "security":
        return SecurityTask(
            name=data["name"],
            wcet=float(data["wcet"]),
            period_des=float(data["period_des"]),
            period_max=float(data["period_max"]),
            weight=float(data.get("weight", 1.0)),
            surface=data.get("surface"),
        )
    raise ValidationError(f"unknown task type {kind!r}")


def taskset_to_dict(tasks: TaskSet) -> dict[str, Any]:
    return {"tasks": [task_to_dict(t) for t in tasks]}


def taskset_from_dict(data: Mapping[str, Any]) -> TaskSet:
    return TaskSet(task_from_dict(d) for d in data["tasks"])


# -- partition / system --------------------------------------------------------


def partition_to_dict(partition: Partition) -> dict[str, Any]:
    return {
        "num_cores": partition.platform.num_cores,
        "tasks": [task_to_dict(t) for t in partition.tasks],
        "core_of": partition.as_mapping(),
    }


def partition_from_dict(data: Mapping[str, Any]) -> Partition:
    platform = Platform(int(data["num_cores"]))
    tasks = TaskSet(task_from_dict(d) for d in data["tasks"])
    return Partition(platform, tasks, dict(data["core_of"]))


def system_to_dict(system: SystemModel) -> dict[str, Any]:
    return {
        "partition": partition_to_dict(system.rt_partition),
        "security_tasks": taskset_to_dict(system.security_tasks),
        "weights": dict(system.weights),
    }


def system_from_dict(data: Mapping[str, Any]) -> SystemModel:
    partition = partition_from_dict(data["partition"])
    return SystemModel(
        platform=partition.platform,
        rt_partition=partition,
        security_tasks=taskset_from_dict(data["security_tasks"]),
        weights=dict(data.get("weights", {})),
    )


# -- allocations ----------------------------------------------------------------


def allocation_to_dict(allocation: Allocation) -> dict[str, Any]:
    return {
        "scheme": allocation.scheme,
        "schedulable": allocation.schedulable,
        "failed_task": allocation.failed_task,
        "assignments": [
            {
                "task": task_to_dict(a.task),
                "core": a.core,
                "period": a.period,
            }
            for a in allocation.assignments
        ],
        "info": {k: _jsonable(v) for k, v in allocation.info.items()},
    }


def _jsonable(value: Any) -> Any:
    """Best-effort conversion of info values to JSON-safe types."""
    if isinstance(value, (str, int, bool)) or value is None:
        return value
    if isinstance(value, float):
        return value
    if isinstance(value, Mapping):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return str(value)


def allocation_from_dict(data: Mapping[str, Any]) -> Allocation:
    assignments = tuple(
        SecurityAssignment(
            task=task_from_dict(entry["task"]),
            core=int(entry["core"]),
            period=float(entry["period"]),
        )
        for entry in data.get("assignments", ())
    )
    return Allocation(
        scheme=data["scheme"],
        schedulable=bool(data["schedulable"]),
        assignments=assignments,
        failed_task=data.get("failed_task"),
        info=dict(data.get("info", {})),
    )


# -- files -----------------------------------------------------------------------


def save_json(obj: Mapping[str, Any], path: str | Path) -> Path:
    """Write a serialised object as pretty-printed JSON."""
    path = Path(path)
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")
    return path


def load_json(path: str | Path) -> dict[str, Any]:
    """Read a JSON file written by :func:`save_json`."""
    return json.loads(Path(path).read_text())


def rows_to_csv(
    headers: Sequence[str],
    rows: Iterable[Sequence[Any]],
    path: str | Path,
) -> Path:
    """Export tabular experiment results (e.g. a Fig. 2 panel) as CSV."""
    path = Path(path)
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(headers)
        for row in rows:
            writer.writerow(list(row))
    return path
