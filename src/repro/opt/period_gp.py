"""Period adaptation via the paper's geometric-program formulation.

The appendix of the paper rewrites Eq. (7) as the GP

    min   T_des⁻¹ · Ts              (inverse tightness, a monomial)
    s.t.  T_des · Ts⁻¹ ≤ 1          (period lower bound)
          T_max⁻¹ · Ts ≤ 1          (period upper bound)
          (Cs + K')·Ts⁻¹ + U ≤ 1    (Eq. (6) divided by Ts)

and solves the log-transformed convex problem with an interior-point
method.  This module builds exactly that program on top of
:mod:`repro.opt.gp` — the from-scratch replacement for the paper's
GPkit/CVXOPT stack — so the reproduction exercises the same solution
route the authors used.  The closed form in :mod:`repro.opt.period` is
the analytical optimum of the same program: the GP is the oracle that
pins it, and the property-based tests assert the two agree.
"""

from __future__ import annotations

from repro.analysis.interference import InterferenceEnv
from repro.errors import InfeasibleError
from repro.model.task import SecurityTask
from repro.opt.gp import GeometricProgram, Monomial
from repro.opt.period import PeriodSolution

__all__ = ["build_period_gp", "adapt_period_gp"]

_VAR = "Ts"


def build_period_gp(
    task: SecurityTask, env: InterferenceEnv
) -> GeometricProgram:
    """Construct the appendix GP for one task on one core."""
    objective = Monomial(1.0 / task.period_des, {_VAR: 1.0})
    constraints = [
        Monomial(task.period_des, {_VAR: -1.0}),
        Monomial(1.0 / task.period_max, {_VAR: 1.0}),
    ]
    busy = Monomial(task.wcet + env.total_wcet, {_VAR: -1.0})
    if env.utilization > 0.0:
        schedulability = busy + Monomial(env.utilization, {})
    else:
        schedulability = busy
    constraints.append(schedulability)
    return GeometricProgram(objective, constraints)


def adapt_period_gp(
    task: SecurityTask, env: InterferenceEnv, tol: float = 1e-9
) -> PeriodSolution | None:
    """Solve Eq. (7) through the GP/interior-point route.

    Same contract as :func:`repro.opt.period.adapt_period`: the optimal
    :class:`PeriodSolution` or ``None`` when no admissible period exists
    on this core.
    """
    program = build_period_gp(task, env)
    try:
        result = program.solve(tol=tol)
    except InfeasibleError:
        return None
    period = result.variables[_VAR]
    # Clamp the numerically-optimal period into the admissible box (the
    # interior-point iterate sits strictly inside it by construction).
    period = min(max(period, task.period_des), task.period_max)
    binding = (
        "desired" if period <= task.period_des * (1.0 + 1e-9) else "interference"
    )
    return PeriodSolution(
        period=period,
        tightness=task.period_des / period,
        binding=binding,
    )
