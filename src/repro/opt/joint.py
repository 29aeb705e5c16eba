"""Joint period optimisation for a *fixed* security-task assignment.

The OPT baseline (paper Sec. IV-B.2) enumerates all ``M^NS`` assignments
and, per assignment, "determine[s] the value of the period vector T that
maximizes the cumulative tightness by solving a convex optimization
problem".  Substituting rates ``y_s = 1/T_s`` makes that problem an exact
linear program (DESIGN §2.2):

    max  Σ_s ω_s · T_des_s · y_s
    s.t. K_s^m · y_s + Σ_{h ∈ hpS(s) on m} C_h · y_h ≤ 1 − U_R^m
         1/T_max_s ≤ y_s ≤ 1/T_des_s

with ``K_s^m = C_s + Σ_{r on m} C_r + Σ_{h on m} C_h`` (divide Eq. (6) by
``T_s`` to see it).  Every constraint's left side is increasing in every
``y``, so the assignment is feasible iff the all-slowest point
``y_s = 1/T_max_s`` is feasible — a fast pruning test used by the
exhaustive and branch-and-bound searches.

This module also provides the *sequential* per-assignment solver (fix
each period greedily in priority order via Eq. (7)), which is what
HYDRA's inner loop and the SingleCore baseline use.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from repro.analysis.interference import InterferenceEnv
from repro.errors import ValidationError
from repro.model.priority import security_priority_order
from repro.model.system import SystemModel
from repro.model.task import RealTimeTask, SecurityTask
from repro.opt.lp import solve_lp
from repro.opt.period import adapt_period, adapt_period_exact

__all__ = [
    "AssignmentSolution",
    "assignment_feasible",
    "solve_assignment_lp",
    "solve_assignment_sequential",
]


@dataclass(frozen=True)
class AssignmentSolution:
    """Optimal periods for one fixed assignment.

    Attributes
    ----------
    assignment:
        Security task name → core index (echo of the input).
    periods:
        Security task name → optimal period.
    tightness:
        Cumulative weighted tightness ``Σ ω_s · T_des_s / T_s``.
    """

    assignment: dict[str, int]
    periods: dict[str, float]
    tightness: float


def _validated_order(
    system: SystemModel, assignment: Mapping[str, int]
) -> list[SecurityTask]:
    """Priority-ordered security tasks, with assignment sanity checks."""
    tasks = list(system.security_tasks)
    if set(assignment) != {t.name for t in tasks}:
        raise ValidationError(
            "assignment must cover exactly the system's security tasks"
        )
    for name, core in assignment.items():
        system.platform.validate_core(core)
    return security_priority_order(tasks)


def _core_groups(
    ordered: list[SecurityTask], assignment: Mapping[str, int]
) -> dict[int, list[SecurityTask]]:
    """Group priority-ordered tasks by their assigned core (order kept)."""
    groups: dict[int, list[SecurityTask]] = {}
    for task in ordered:
        groups.setdefault(assignment[task.name], []).append(task)
    return groups


def _total_wcet(tasks: Iterable[RealTimeTask]) -> float:
    """``Σ C`` over ``tasks``, added left to right from ``0.0`` on every
    Python version (the builtin ``sum`` of floats is compensated from
    3.12 on)."""
    total = 0.0
    for task in tasks:
        total += task.wcet
    return total


def assignment_feasible(
    system: SystemModel, assignment: Mapping[str, int]
) -> bool:
    """Exact feasibility of a fixed assignment under the linearised test.

    By constraint monotonicity this holds iff every task meets Eq. (6)
    when *all* security periods sit at their maxima.
    """
    ordered = _validated_order(system, assignment)
    for core, group in _core_groups(ordered, assignment).items():
        rt_util = system.rt_partition.utilization_of(core)
        budget = 1.0 - rt_util
        if budget <= 0.0 and group:
            return False
        hp_wcet = 0.0  # Σ C_h over higher-priority tasks on this core
        hp_rate_load = 0.0  # Σ C_h / T_max_h
        rt_wcet = _total_wcet(system.rt_partition.tasks_on(core))
        for task in group:
            k = task.wcet + rt_wcet + hp_wcet
            lhs = k / task.period_max + hp_rate_load
            if lhs > budget + 1e-9:
                return False
            hp_wcet += task.wcet
            hp_rate_load += task.wcet / task.period_max
    return True


def solve_assignment_lp(
    system: SystemModel,
    assignment: Mapping[str, int],
    backend: str = "simplex",
) -> AssignmentSolution | None:
    """Maximise cumulative weighted tightness for a fixed assignment.

    Returns ``None`` when the assignment is infeasible.  This is the
    exact optimum the OPT baseline needs per enumerated assignment.
    """
    ordered = _validated_order(system, assignment)
    if not ordered:
        return AssignmentSolution(dict(assignment), {}, 0.0)
    index = {task.name: i for i, task in enumerate(ordered)}
    n = len(ordered)

    objective = [0.0] * n
    for task in ordered:
        objective[index[task.name]] = -(
            system.weight_of(task) * task.period_des
        )

    a_ub: list[list[float]] = []
    b_ub: list[float] = []
    for core, group in _core_groups(ordered, assignment).items():
        budget = 1.0 - system.rt_partition.utilization_of(core)
        rt_wcet = _total_wcet(system.rt_partition.tasks_on(core))
        if budget <= 0.0 and group:
            return None
        hp_on_core: list[SecurityTask] = []
        hp_wcet = 0.0  # Σ C_h over hp_on_core
        for task in group:
            row = [0.0] * n
            k = task.wcet + rt_wcet + hp_wcet
            row[index[task.name]] = k
            for h in hp_on_core:
                row[index[h.name]] = h.wcet
            a_ub.append(row)
            b_ub.append(budget)
            hp_on_core.append(task)
            hp_wcet += task.wcet

    bounds = [
        (1.0 / task.period_max, 1.0 / task.period_des) for task in ordered
    ]
    result = solve_lp(objective, a_ub=a_ub, b_ub=b_ub, bounds=bounds,
                      backend=backend)
    if not result.is_optimal:
        return None
    periods = {
        task.name: 1.0 / float(result.x[index[task.name]]) for task in ordered
    }
    return AssignmentSolution(
        assignment=dict(assignment),
        periods=periods,
        tightness=-float(result.objective),
    )


def solve_assignment_sequential(
    system: SystemModel,
    assignment: Mapping[str, int],
    exact: bool = False,
) -> AssignmentSolution | None:
    """Fix periods greedily in priority order for a fixed assignment.

    This mirrors HYDRA's inner optimisation (Eq. 7 per task, highest
    priority first) but with the core choice already made; the paper's
    SingleCore baseline is exactly this with every task mapped to the
    dedicated core.  ``exact=True`` switches Eq. (5)'s linear envelope
    for exact response-time analysis (extension).

    Returns ``None`` if some task has no feasible period — note this can
    reject assignments the LP accepts, because greedy minimal periods
    maximise the interference passed down to lower-priority tasks.
    """
    ordered = _validated_order(system, assignment)
    solver = adapt_period_exact if exact else adapt_period
    placed: dict[int, list[tuple[SecurityTask, float]]] = {}
    periods: dict[str, float] = {}
    tightness = 0.0
    for task in ordered:
        core = assignment[task.name]
        env = InterferenceEnv.on_core(
            system.rt_partition.tasks_on(core), placed.get(core, [])
        )
        solution = solver(task, env)
        if solution is None:
            return None
        periods[task.name] = solution.period
        tightness += system.weight_of(task) * solution.tightness
        placed.setdefault(core, []).append((task, solution.period))
    return AssignmentSolution(
        assignment=dict(assignment), periods=periods, tightness=tightness
    )
