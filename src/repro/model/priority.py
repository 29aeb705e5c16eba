"""Priority assignment policies.

The paper fixes two priority orders:

* Real-time tasks use **rate monotonic** (RM) priorities — shorter period
  means higher priority — and priorities are *distinct* (ties broken
  deterministically).
* Security tasks are prioritised by their maximum period:
  ``pri(τs1) > pri(τs2)  iff  T_max_s1 < T_max_s2`` (Sec. II-C), and every
  security task runs below every real-time task.

Throughout the package, a *smaller* integer priority value denotes a
*higher* priority (the usual convention in response-time analysis
literature).  Real-time tasks occupy priority levels ``0 … NR-1`` and
security tasks occupy levels ``NR … NR+NS-1`` so that a single total
order covers the whole system.
"""

from __future__ import annotations

from typing import Iterable

from repro.model.task import RealTimeTask, SecurityTask

__all__ = ["security_priority_order", "rate_monotonic_order"]


def rate_monotonic_order(tasks: Iterable[RealTimeTask]) -> list[RealTimeTask]:
    """Return tasks sorted in rate monotonic order (highest priority first).

    Ties on the period are broken by WCET (larger first, which is the more
    pessimistic interferer ordering) and then by name so that the order is
    total and deterministic, satisfying the paper's "distinct priorities"
    assumption.
    """
    return sorted(tasks, key=lambda t: (t.period, -t.wcet, t.name))


def security_priority_order(tasks: Iterable[SecurityTask]) -> list[SecurityTask]:
    """Return security tasks sorted from highest to lowest priority.

    Priority is by ``T_max`` ascending (Sec. II-C); ties are broken by
    desired period, WCET (larger first) and name to keep the order total
    and deterministic.
    """
    return sorted(
        tasks, key=lambda t: (t.period_max, t.period_des, -t.wcet, t.name)
    )
