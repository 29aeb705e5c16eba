"""Classic bin-packing rules as *security-task* allocators.

The paper family this reproduction sits in (Hasan et al. 2018, see
PAPERS.md) allocates security tasks with the same first/best/worst/
next-fit rules that partition real-time tasks.  HYDRA's pitch is that
its argmax-tightness core choice beats them — but the seed code could
not even express them on the security side.  This module ports the four
rules onto the common :class:`~repro.core.allocator.Allocator`
protocol, so a TOML grid can sweep ``allocator = ["hydra",
"binpack-best-fit", ...]`` and reproduce that comparison directly.

The walk is HYDRA's own (:class:`repro.core.hydra.HydraAllocator`):
security tasks in priority order, each core probed with the Eq. (7)
period solve; each rule below is only the core rule that picks among
the feasible cores.  Cores are ranked by their utilisation before the
candidate task is placed — the core's real-time tasks plus the
security tasks already committed there (at their frozen periods) —
exactly the quantity the real-time heuristics in
:mod:`repro.partition.heuristics` rank by:

==============  ========================================================
first-fit       lowest-indexed feasible core (the core rule of
                ``first-feasible``, so the two place identically)
best-fit        feasible core with the *least* remaining utilisation
                (pack tightly, keep cores free)
worst-fit       feasible core with the *most* remaining utilisation
                (spread the load; ``slackiest-core`` ranks by ``1 − U``
                instead, which can round two loads to one slack)
next-fit        the first feasible core at or after the last task's
                core, never revisiting earlier cores; the task fails
                when only cores behind it are feasible
==============  ========================================================
"""

from __future__ import annotations

from repro.core.hydra import Candidate, CoreRule, HydraAllocator
from repro.core.variants import first_feasible
from repro.errors import ConfigError
from repro.model.allocation import SecurityAssignment

__all__ = ["BIN_PACKING_RULES", "BinPackingAllocator"]


def _best_fit(
    candidates: list[Candidate], placed: list[SecurityAssignment]
) -> Candidate:
    return max(candidates, key=lambda c: (c[2].utilization, -c[0]))


def _worst_fit(
    candidates: list[Candidate], placed: list[SecurityAssignment]
) -> Candidate:
    return min(candidates, key=lambda c: (c[2].utilization, c[0]))


def _next_fit(
    candidates: list[Candidate], placed: list[SecurityAssignment]
) -> Candidate | None:
    pointer = placed[-1].core if placed else 0
    return next((c for c in candidates if c[0] >= pointer), None)


_RULES: dict[str, CoreRule] = {
    "first-fit": first_feasible,
    "best-fit": _best_fit,
    "worst-fit": _worst_fit,
    "next-fit": _next_fit,
}

#: Known security-side packing rules.
BIN_PACKING_RULES = tuple(_RULES)


class BinPackingAllocator(HydraAllocator):
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
        self._choose = _RULES[rule]
        self.name = f"binpack-{rule}"
        if solver != "closed-form":
            self.name = f"binpack-{rule}[{solver}]"

    def _info(self, cores: dict[int, float]) -> dict[str, object]:
        return {"rule": self.rule, "solver": self.solver_name}
