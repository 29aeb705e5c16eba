"""Every task's response time on one core, the way the tests read it."""

from __future__ import annotations

from typing import Sequence

from repro.analysis.interference import Interferer
from repro.analysis.rta import response_time
from repro.model.priority import rate_monotonic_order
from repro.model.task import RealTimeTask


def core_response_times(tasks: Sequence[RealTimeTask]) -> dict[str, float]:
    """Name → response time of each task under RM order, ``inf`` where
    the fixed point exceeds the task's deadline (scalar
    :func:`~repro.analysis.rta.response_time`, highest priority first)."""
    results: dict[str, float] = {}
    higher: list[Interferer] = []
    for task in rate_monotonic_order(tasks):
        results[task.name] = response_time(
            task.wcet, higher, limit=task.deadline
        )
        higher.append(Interferer.from_rt(task))
    return results
