"""Classic bin-packing rules as *security-task* allocators.

The paper family this reproduction sits in (Hasan et al. 2018, see
PAPERS.md) allocates security tasks with the same first/best/worst/
next-fit rules that partition real-time tasks.  HYDRA's pitch is that
its argmax-tightness core choice beats them — but the seed code could
not even express them on the security side.  This module ports the four
rules onto the common :class:`~repro.core.allocator.Allocator`
protocol, so a TOML grid can sweep ``allocator = ["hydra",
"binpack-best-fit", ...]`` and reproduce that comparison directly.

The walk reuses the HYDRA-style greedy skeleton
(:class:`repro.core.variants._GreedyCoreAllocator`): security tasks in
priority order, each core probed with the Eq. (7) period solve, only
the *choice rule* differs.  Cores are ranked by their utilisation
before the candidate task is placed — the core's real-time tasks plus
the security tasks already committed there (at their frozen periods) —
exactly the quantity the real-time heuristics in
:mod:`repro.partition.heuristics` rank by:

==============  ========================================================
first-fit       lowest-indexed feasible core (same placements as the
                registered ``first-feasible`` ablation rule)
best-fit        feasible core with the *least* remaining utilisation
                (pack tightly, keep cores free)
worst-fit       feasible core with the *most* remaining utilisation
                (spread the load; same ranking as ``slackiest-core``)
next-fit        moving pointer, never revisit earlier cores
==============  ========================================================
"""

from __future__ import annotations

import dataclasses

from repro.core.variants import _GreedyCoreAllocator
from repro.errors import ConfigError
from repro.model.allocation import Allocation
from repro.model.system import SystemModel

__all__ = ["BIN_PACKING_RULES", "BinPackingAllocator"]

#: Known security-side packing rules.
BIN_PACKING_RULES = ("first-fit", "best-fit", "worst-fit", "next-fit")


class BinPackingAllocator(_GreedyCoreAllocator):
    """Allocate security tasks with a classic bin-packing rule.

    Parameters
    ----------
    rule:
        One of :data:`BIN_PACKING_RULES`.
    solver:
        Inner period solver (see
        :data:`repro.core.hydra.PERIOD_SOLVERS`); ``"closed-form"``
        matches the paper's linearised Eq. (7).
    """

    name = "binpack"

    def __init__(
        self, rule: str = "first-fit", solver: str = "closed-form"
    ) -> None:
        if rule not in BIN_PACKING_RULES:
            raise ConfigError(
                f"unknown bin-packing rule {rule!r}; expected one of "
                f"{', '.join(BIN_PACKING_RULES)}"
            )
        super().__init__(solver=solver)
        self.rule = rule
        self.name = f"binpack-{rule}"
        if solver != "closed-form":
            self.name = f"binpack-{rule}[{solver}]"
        self._next_fit_pointer = 0

    def allocate(self, system: SystemModel) -> Allocation:
        self._next_fit_pointer = 0  # each allocation walks afresh
        allocation = super().allocate(system)
        if not allocation.schedulable:
            return allocation
        return dataclasses.replace(
            allocation,
            info={"rule": self.rule, "solver": self.solver_name},
        )

    def _choose(self, candidates):
        if self.rule == "first-fit":
            core, solution, _env = candidates[0]
            return core, solution
        if self.rule == "next-fit":
            for core, solution, _env in candidates:
                if core >= self._next_fit_pointer:
                    self._next_fit_pointer = core
                    return core, solution
            return None  # only cores behind the pointer were feasible
        # env.utilization is the core's load *before* placing the task
        # (RT tasks + already-committed security tasks).
        if self.rule == "best-fit":
            core, solution, _env = max(
                candidates, key=lambda c: (c[2].utilization, -c[0])
            )
        else:  # worst-fit
            core, solution, _env = min(
                candidates, key=lambda c: (c[2].utilization, c[0])
            )
        return core, solution
