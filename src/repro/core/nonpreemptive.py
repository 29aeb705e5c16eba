"""Blocking-aware HYDRA for non-preemptive security tasks (§V).

The plain HYDRA allocation is unsound when security tasks execute
non-preemptively: the extension ablation shows real-time tasks missing
thousands of deadlines from blocking.  This allocator restores the
"never perturb the real-time tasks" contract:

* a core is only a candidate for a security task if every real-time
  task on it remains schedulable under a blocking term equal to the
  *largest* non-preemptive security WCET that would then live there
  (:mod:`repro.analysis.blocking`);
* among the surviving cores, the usual Eq. (7) period adaptation and
  argmax-tightness rule apply unchanged: this is HYDRA's walk with
  only the cores a task may probe narrowed.

The per-core blocking budget is precomputed once
(:func:`repro.analysis.blocking.max_tolerable_blocking`), so the filter
is a constant-time comparison per (task, core).
"""

from __future__ import annotations

from repro.analysis.blocking import max_tolerable_blocking
from repro.core.hydra import HydraAllocator, period_solver
from repro.model.system import SystemModel

__all__ = ["NonPreemptiveHydraAllocator"]


class NonPreemptiveHydraAllocator(HydraAllocator):
    """HYDRA variant that keeps real-time tasks safe under
    non-preemptive security execution."""

    name = "hydra[np]"

    def __init__(self, solver: str = "closed-form") -> None:
        self._solve = period_solver(solver)
        self.solver_name = solver

    def _cores(self, system: SystemModel) -> dict[int, float]:
        """Every core, each admitting a security task only up to its
        blocking budget: a longer one would block some real-time task
        past its deadline."""
        return {
            core: max_tolerable_blocking(system.rt_partition.tasks_on(core))
            for core in system.platform
        }

    def _info(self, cores: dict[int, float]) -> dict[str, object]:
        return {"solver": self.solver_name, "blocking_budgets": dict(cores)}
