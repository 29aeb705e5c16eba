"""Ablation variants of HYDRA for the design-space exploration benches.

HYDRA makes two greedy choices per task: *which core* (argmax tightness)
and *which period* (minimum feasible).  Each variant perturbs exactly one
of those choices so the ablation benches can attribute HYDRA's behaviour:

* :func:`first_feasible` — the core rule of ``first-feasible``: the
  first feasible core instead of the tightness-maximising one (cheapest
  possible core choice).
* :func:`slackiest_core` — the core rule of ``slackiest-core``: the
  feasible core with the most remaining utilisation slack (a worst-fit
  flavour that spreads the security load).
* :class:`LpRefinedHydraAllocator` — keep HYDRA's assignment but re-solve
  all periods jointly with the LP, recovering tightness the sequential
  greedy gives away (upper-bounds what smarter period choices could buy
  *without* changing the assignment).

The two core rules run in HYDRA's own walk
(:class:`~repro.core.hydra.HydraAllocator`); the registry builds each
as that walk with the rule swapped in.
"""

from __future__ import annotations

from repro.core.allocator import Allocator
from repro.core.hydra import Candidate, HydraAllocator
from repro.model.allocation import Allocation, SecurityAssignment
from repro.model.system import SystemModel
from repro.opt.joint import solve_assignment_lp

__all__ = [
    "first_feasible",
    "slackiest_core",
    "LpRefinedHydraAllocator",
]


def first_feasible(
    candidates: list[Candidate], placed: list[SecurityAssignment]
) -> Candidate:
    """The lowest-indexed feasible core."""
    return candidates[0]


def slackiest_core(
    candidates: list[Candidate], placed: list[SecurityAssignment]
) -> Candidate:
    """The feasible core with the most remaining utilisation slack
    (``1 − U`` of its real-time and placed security load), ties to the
    lowest core."""
    return max(candidates, key=lambda c: (1.0 - c[2].utilization, -c[0]))


class LpRefinedHydraAllocator(Allocator):
    """HYDRA's assignment + joint LP period refinement (extension).

    The greedy period choice is lexicographic: each task takes the
    smallest feasible period even when that starves lower-priority tasks.
    Re-solving the periods jointly (the assignment kept fixed) maximises
    the cumulative weighted tightness achievable for HYDRA's own
    assignment; by construction it is never worse.
    """

    name = "hydra+lp"

    def __init__(self, solver: str = "closed-form"):
        self._hydra = HydraAllocator(solver=solver)

    def allocate(self, system: SystemModel) -> Allocation:
        base = self._hydra.allocate(system)
        if not base.schedulable:
            return Allocation(
                scheme=self.name,
                schedulable=False,
                failed_task=base.failed_task,
            )
        refined = solve_assignment_lp(system, base.cores())
        if refined is None:  # pragma: no cover - feasible stays feasible
            return base
        assignments = tuple(
            SecurityAssignment(
                task=a.task, core=a.core, period=refined.periods[a.task.name]
            )
            for a in base.assignments
        )
        return Allocation(
            scheme=self.name,
            schedulable=True,
            assignments=assignments,
            info={
                "greedy_tightness": base.cumulative_tightness(),
                "refined_tightness": refined.tightness,
            },
        )
