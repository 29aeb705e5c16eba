"""The ``workload-sample`` point runner and the plain-JSON task codecs.

The smallest possible sweep kind — one generated instance per point,
returned as :func:`workload_to_dict` — so workload generation itself
rides the engine's determinism contract: the property suite
byte-compares serial, pooled and cached runs of the same spec, which
proves a generator draws only from the stream it is handed (a generator
touching global randomness or worker state cannot pass).

Importing this module registers the runner.  pytest imports every test
module, and so this one, before any test forks a worker pool, so pooled
workers inherit the registration.
"""

from __future__ import annotations

from typing import Any, Mapping

import numpy as np

from repro.errors import ValidationError
from repro.experiments.parallel import register_point_runner
from repro.model.platform import Platform
from repro.model.task import RealTimeTask, SecurityTask, TaskSet
from repro.taskgen.synthetic import SyntheticWorkload
from repro.workloads.registry import run_workload


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


def workload_to_dict(workload: SyntheticWorkload) -> dict[str, Any]:
    """Plain-JSON form of one generated instance (stable keys); its
    canonical JSON is what the determinism tests byte-compare."""
    return {
        "cores": workload.platform.num_cores,
        "target_utilization": workload.target_utilization,
        "rt_tasks": taskset_to_dict(workload.rt_tasks),
        "security_tasks": taskset_to_dict(workload.security_tasks),
    }


def workload_from_dict(data: Mapping[str, Any]) -> SyntheticWorkload:
    """Inverse of :func:`workload_to_dict` (default recipe config)."""
    return SyntheticWorkload(
        platform=Platform(int(data["cores"])),
        rt_tasks=taskset_from_dict(data["rt_tasks"]),
        security_tasks=taskset_from_dict(data["security_tasks"]),
        target_utilization=float(data["target_utilization"]),
    )


@register_point_runner("workload-sample")
def run_workload_sample_point(
    point: Mapping[str, Any],
    params: Mapping[str, Any],
    rng: np.random.Generator,
) -> dict[str, Any]:
    """One generated instance of ``params["workload"]`` at the point's
    utilisation, serialised for byte comparison."""
    workload = run_workload(
        params["workload"],
        int(params["cores"]),
        float(point["utilization"]),
        rng,
    )
    return {"workload": workload_to_dict(workload)}
