"""Blocking-aware schedulability for non-preemptive security execution.

Paper §V: "some critical security task may require non-preemptive
execution to perform desired checking."  Running a security task
non-preemptively breaks the core assumption that security never
perturbs the real-time tasks: once a check starts, every real-time task
on that core can be *blocked* for up to the check's remaining WCET.

Classic non-preemptive blocking analysis applies because security tasks
sit strictly below every real-time priority:

* A real-time task `τr` on core `m` suffers a blocking term
  `B_m = max { C_s : τs non-preemptive security on m }` — at most one
  lower-priority job can hold the core when `τr` arrives, and the
  longest it can hold it is the largest security WCET.  Its response
  time becomes the fixed point of
  `R = C_r + B_m + Σ_{hp} ⌈R/T_h⌉·C_h`.
* A security task still suffers the Eq. (5)/(6) interference *before it
  starts* (it queues below everything), so the paper's bound remains
  sound for the security side; non-preemptivity only changes who it
  hurts, not what it needs.

:func:`rt_schedulable_with_blocking` verifies one core's real-time
tasks against a candidate blocking term;
:func:`max_tolerable_blocking` computes the largest security WCET a
core can absorb, which the blocking-aware allocator
(:class:`repro.core.nonpreemptive.NonPreemptiveHydraAllocator`) uses as
a placement filter.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

from repro.analysis.rta import _schedulable_with_blocking
from repro.errors import ValidationError
from repro.model.task import RealTimeTask

__all__ = [
    "rt_schedulable_with_blocking",
    "max_tolerable_blocking",
]


def rt_schedulable_with_blocking(
    rt_tasks: Sequence[RealTimeTask], blocking: float
) -> bool:
    """Do all real-time tasks on one core meet their deadlines when any
    of them can be blocked for up to ``blocking`` time units by a
    non-preemptive lower-priority job?"""
    if blocking < 0:
        raise ValidationError(f"blocking must be ≥ 0, got {blocking}")
    return _schedulable_with_blocking(rt_tasks, blocking)


def max_tolerable_blocking(
    rt_tasks: Iterable[RealTimeTask], tolerance: float = 1e-6
) -> float:
    """Largest blocking term a core's real-time tasks can absorb.

    Returns ``inf`` for an empty core.  Computed by bisection on
    :func:`rt_schedulable_with_blocking` — the predicate is monotone in
    the blocking term.  A zero result means the core cannot host *any*
    non-preemptive security work (some task is already at its deadline
    edge).
    """
    tasks = list(rt_tasks)
    if not tasks:
        return math.inf
    if not rt_schedulable_with_blocking(tasks, 0.0):
        return 0.0
    # The blocking term is bounded by the smallest deadline: a job
    # blocked for its whole deadline can never finish.
    high = min(task.deadline for task in tasks)
    if rt_schedulable_with_blocking(tasks, high):
        return high
    low = 0.0
    while high - low > tolerance:
        mid = (low + high) / 2.0
        if rt_schedulable_with_blocking(tasks, mid):
            low = mid
        else:
            high = mid
    return low
