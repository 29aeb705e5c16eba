"""Demand bound function and the paper's necessary feasibility test.

Eq. (1) of the paper states the standard necessary condition for a
sporadic task set to be feasible on ``M`` unit-speed cores:

    Σ_r DBF(τr, t) ≤ M · t   for all t > 0,

with ``DBF(τr, t) = max(0, (⌊(t − Dr)/Tr⌋ + 1) · Cr)``.

For implicit-deadline tasks this reduces to the utilisation condition
``Σ U ≤ M`` (because ``DBF(t) = ⌊t/T⌋·C ≤ U·t`` with equality in the
limit), but the functions below implement the general constrained-
deadline form so the analysis substrate is complete.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from repro.model.platform import Platform
from repro.model.task import RealTimeTask

__all__ = [
    "demand_bound",
    "total_demand",
    "dbf_check_points",
    "necessary_condition",
]


def demand_bound(task: RealTimeTask, t: float) -> float:
    """``DBF(τ, t)``: maximum cumulative execution demand of jobs of
    ``task`` that both arrive and have their deadline inside any window
    of length ``t``."""
    if t <= 0:
        return 0.0
    jobs = math.floor((t - task.deadline) / task.period) + 1
    if jobs <= 0:
        return 0.0
    return jobs * task.wcet


def total_demand(tasks: Iterable[RealTimeTask], t: float) -> float:
    """Σ DBF over ``tasks`` at horizon ``t``."""
    return sum(demand_bound(task, t) for task in tasks)


def dbf_check_points(
    tasks: Sequence[RealTimeTask], horizon: float
) -> Iterator[float]:
    """Yield, in increasing order, every point ``t ≤ horizon`` at which
    some task's DBF steps (absolute deadlines ``k·T + D``).

    The necessary condition only needs to be checked at these points
    because both sides of Eq. (1) are monotone between steps and the
    right-hand side grows continuously.
    """
    points: set[float] = set()
    for task in tasks:
        deadline = task.deadline
        while deadline <= horizon:
            points.add(deadline)
            deadline += task.period
    yield from sorted(points)


#: Most check points :func:`necessary_condition` visits: past this the
#: horizon is cut short and a ``True`` verdict only covers the points
#: checked.  Only constrained-deadline sets whose utilisation sits next
#: to the capacity and whose periods share no small hyperperiod get here.
_MAX_CHECK_POINTS = 100_000


def _necessary_horizon(tasks: Sequence[RealTimeTask], capacity: float) -> float:
    """A finite horizon beyond which Eq. (1) cannot newly fail, for a
    non-empty task set with utilisation ``U ≤ capacity``.

    Two bounds hold and the smaller is used:

    * ``DBF(τ, t) ≤ U·t + U·(T − D)``, hence
      ``Σ DBF(t) − capacity·t ≤ Σ U_i (T_i − D_i) − (capacity − U)·t``,
      which is non-positive for
      ``t ≥ Σ U_i (T_i − D_i) / (capacity − U)`` — a bound that runs
      off to infinity as ``U`` reaches the capacity;
    * the hyperperiod ``L`` (the exact least common multiple of the
      periods): ``DBF(τ, t + L) ≤ DBF(τ, t) + U·L``, so any violation
      past ``L`` repeats one inside it, also at ``U = capacity``.

    The result is capped at about :data:`_MAX_CHECK_POINTS` check points.
    """
    total_u = sum(task.utilization for task in tasks)
    largest_deadline = max(task.deadline for task in tasks)
    periods = [Fraction(task.period) for task in tasks]
    horizon = Fraction(
        math.lcm(*(p.numerator for p in periods)),
        math.gcd(*(p.denominator for p in periods)),
    )
    if total_u < capacity:
        slack_sum = sum(
            task.utilization * (task.period - task.deadline) for task in tasks
        )
        bound = slack_sum / (capacity - total_u)
        horizon = min(horizon, Fraction(max(bound, largest_deadline)))
    rate = sum(1.0 / task.period for task in tasks)
    cap = largest_deadline + _MAX_CHECK_POINTS / rate
    return float(min(horizon, Fraction(cap)))


def necessary_condition(
    tasks: Sequence[RealTimeTask] | Iterable[RealTimeTask],
    platform: Platform | int,
) -> bool:
    """Evaluate the paper's Eq. (1) necessary feasibility condition.

    Returns ``True`` when the demand of ``tasks`` never exceeds the
    platform capacity ``M·t`` (checked up to the horizon of
    :func:`_necessary_horizon`); a ``False`` result proves the task set
    unfeasible on any partitioning (the paper discards such synthetic
    task sets up front).
    """
    task_list = list(tasks)
    capacity = float(
        platform.num_cores if isinstance(platform, Platform) else platform
    )
    total_u = sum(task.utilization for task in task_list)
    if total_u > capacity + 1e-12:
        return False
    if all(task.is_implicit_deadline for task in task_list):
        # Implicit deadlines: DBF(t) = ⌊t/T⌋·C ≤ U·t, so the utilisation
        # check above is exact.
        return True
    horizon = _necessary_horizon(task_list, capacity)
    for t in dbf_check_points(task_list, horizon):
        if total_demand(task_list, t) > capacity * t + 1e-9:
            return False
    return True
