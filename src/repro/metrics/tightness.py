"""Tightness metrics (paper Eq. 2 and Eq. 3).

``η_s = T_des_s / T_s`` measures how close a security task's achieved
period is to the desired one; the system objective is the (weighted)
cumulative tightness ``Σ ω_s η_s``.  :class:`~repro.model.allocation.Allocation`
exposes the same quantities for allocation objects; the free functions
here work on plain period mappings, which the optimisation layer and
the experiment harness produce.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from repro.errors import ValidationError
from repro.model.task import SecurityTask

__all__ = ["tightness", "cumulative_tightness", "tightness_per_task"]


def tightness(task: SecurityTask, period: float) -> float:
    """``η = T_des / T`` with range validation (delegates to the model)."""
    return task.tightness(period)


def tightness_per_task(
    tasks: Iterable[SecurityTask], periods: Mapping[str, float]
) -> dict[str, float]:
    """name → tightness for every task present in ``periods``."""
    result: dict[str, float] = {}
    for task in tasks:
        if task.name not in periods:
            raise ValidationError(f"no period for security task {task.name!r}")
        result[task.name] = task.tightness(periods[task.name])
    return result


def cumulative_tightness(
    tasks: Iterable[SecurityTask],
    periods: Mapping[str, float],
    weights: Mapping[str, float] | None = None,
) -> float:
    """``Σ ω_s · η_s`` over ``tasks`` (``ω = 1`` when unweighted)."""
    total = 0.0
    for name, eta in tightness_per_task(tasks, periods).items():
        weight = 1.0 if weights is None else weights.get(name, 1.0)
        total += weight * eta
    return total
