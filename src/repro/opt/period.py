"""Period adaptation for a single security task (paper Eq. 7).

For a fixed core and fixed higher-priority periods, Eq. (7) asks for the
period ``Ts`` maximising the tightness ``η = T_des/Ts`` subject to

    T_des ≤ Ts ≤ T_max      and      Cs + I_s^m ≤ Ts,

with the linearised interference ``I_s^m = K' + U·Ts`` of Eq. (5).  The
feasible region is the interval ``[max(T_des, (Cs+K')/(1−U)), T_max]``
and the objective is decreasing in ``Ts``, so the optimum is the left
endpoint — a closed form.  The paper reaches the same optimum by solving
the problem as a geometric program (see :mod:`repro.opt.gp`, which this
module's result is property-tested against).

An exact-RTA variant replaces the linear envelope with the true
fixed-point response time.  Because a security task sits at the bottom of
its core's priority order, its response time does not depend on its own
period, so the exact optimum is simply ``max(T_des, R)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.analysis.interference import InterferenceEnv, min_feasible_period
from repro.analysis.rta import response_time
from repro.errors import ValidationError
from repro.model.task import SecurityTask

__all__ = ["PeriodSolution", "adapt_period", "adapt_period_exact"]


@dataclass(frozen=True, slots=True)
class PeriodSolution:
    """Outcome of a (feasible) period-adaptation solve.

    Attributes
    ----------
    period:
        The optimal period ``Ts*``.
    tightness:
        ``η = T_des / Ts*``.
    binding:
        Which constraint fixed the optimum: ``"desired"`` when the task
        achieves its desired period, ``"interference"`` when the
        schedulability constraint is the binding one.
    """

    period: float
    tightness: float
    binding: str

    def __post_init__(self) -> None:
        if self.period <= 0 or not math.isfinite(self.period):
            raise ValidationError(f"invalid period {self.period!r}")


def adapt_period(
    task: SecurityTask, env: InterferenceEnv
) -> PeriodSolution | None:
    """Solve Eq. (7) in closed form.

    Parameters
    ----------
    task:
        The security task whose period is being adapted.
    env:
        Interference environment of the candidate core: the real-time
        tasks partitioned there plus any higher-priority security tasks
        already assigned there (with their fixed periods).

    Returns
    -------
    The optimal :class:`PeriodSolution`, or ``None`` when the problem is
    infeasible on this core (no period in ``[T_des, T_max]`` satisfies
    the schedulability constraint) — the paper's "``M'_s`` excludes this
    core" case.
    """
    lower = min_feasible_period(task, env)
    if lower > task.period_max * (1.0 + 1e-12):
        return None
    if lower <= task.period_des:
        return PeriodSolution(
            period=task.period_des, tightness=1.0, binding="desired"
        )
    period = min(lower, task.period_max)
    return PeriodSolution(
        period=period,
        tightness=task.period_des / period,
        binding="interference",
    )


def adapt_period_exact(
    task: SecurityTask, env: InterferenceEnv
) -> PeriodSolution | None:
    """Exact-RTA variant of :func:`adapt_period` (extension, DESIGN §7).

    Uses the true worst-case response time of ``task`` below the
    interferers in ``env`` instead of the linear envelope.  Always at
    least as permissive as :func:`adapt_period` (property-tested), which
    quantifies the pessimism the paper accepts for GP compatibility.
    """
    response = response_time(task.wcet, env.interferers, limit=task.period_max)
    if not math.isfinite(response):
        return None
    if response <= task.period_des:
        return PeriodSolution(
            period=task.period_des, tightness=1.0, binding="desired"
        )
    return PeriodSolution(
        period=response,
        tightness=task.period_des / response,
        binding="interference",
    )
