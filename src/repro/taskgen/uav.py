"""The UAV control-system case study (paper Sec. IV-A).

The paper takes its real-time workload from an automated-flight-control
study [18, Atdelzater et al., IEEE TC 2000]: Guidance (reference
trajectory selection), Slow/Fast navigation (sensor reads at two update
rates), Controller (closed-loop control), Missile control and
Reconnaissance (data collection/transmission).  The paper cites but does
not reprint the parameter table, so this module provides a documented
representative parameterisation (DESIGN §5):

* the classic flight-control rate hierarchy — fast inner loops (20 ms)
  through slow mission-level tasks (1000 ms);
* total utilisation ≈ 0.58, high enough that allocation choices matter
  yet low enough that the whole set fits one core (required for the
  SingleCore baseline on a 2-core platform, as in the paper's Fig. 1).

All values are constants below — swap in the original table if it is
available and every experiment continues to work unchanged.
"""

from __future__ import annotations

from repro.errors import ValidationError
from repro.model.task import RealTimeTask, TaskSet

__all__ = ["uav_rt_tasks", "UAV_TASK_TABLE"]

#: name → (wcet ms, period ms); representative, see module docstring.
UAV_TASK_TABLE: dict[str, tuple[float, float]] = {
    "fast_navigation": (2.0, 20.0),
    "controller": (5.0, 50.0),
    "slow_navigation": (10.0, 100.0),
    "guidance": (25.0, 250.0),
    "missile_control": (40.0, 500.0),
    "reconnaissance": (100.0, 1000.0),
}


def uav_rt_tasks(scale: float = 1.0) -> TaskSet:
    """The six UAV real-time tasks.

    Parameters
    ----------
    scale:
        Multiplies every WCET; lets experiments stress the platform
        (``scale > 1``) or relax it without touching the rate structure.
    """
    if scale <= 0:
        raise ValidationError(f"scale must be positive, got {scale}")
    return TaskSet(
        RealTimeTask(name=name, wcet=wcet * scale, period=period)
        for name, (wcet, period) in UAV_TASK_TABLE.items()
    )
