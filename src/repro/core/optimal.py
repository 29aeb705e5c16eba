"""The OPT baseline: tightness-optimal assignment (paper Sec. IV-B.2).

Wraps the exhaustive ``M^NS`` enumeration (or the branch-and-bound
extension) behind the common :class:`~repro.core.allocator.Allocator`
interface so experiments can swap it in anywhere HYDRA fits.  Each
enumerated assignment is scored by the joint period LP, which maximises
the cumulative weighted tightness exactly (DESIGN §2.2).
"""

from __future__ import annotations

from repro.core.allocator import Allocator
from repro.errors import ConfigError
from repro.model.allocation import Allocation, as_allocation
from repro.model.system import SystemModel
from repro.opt.branch_bound import branch_bound_optimal
from repro.opt.exhaustive import exhaustive_optimal

__all__ = ["OptimalAllocator"]


class OptimalAllocator(Allocator):
    """Exact design-space search over every task→core assignment.

    Parameters
    ----------
    search:
        ``"exhaustive"`` (the paper's method) or ``"branch-bound"``
        (extension; provably the same optimum, usually far fewer LP
        solves).
    """

    name = "optimal"

    def __init__(self, search: str = "exhaustive") -> None:
        if search not in ("exhaustive", "branch-bound"):
            raise ConfigError(
                f"unknown search {search!r}; expected one of "
                f"['branch-bound', 'exhaustive']"
            )
        self.search = search
        if search != "exhaustive":
            self.name = f"optimal[{search}]"

    def allocate(self, system: SystemModel) -> Allocation:
        if self.search == "exhaustive":
            result = exhaustive_optimal(system)
            stats: dict[str, object] = {}
        else:
            result, bnb = branch_bound_optimal(system)
            stats = {
                "nodes": bnb.nodes,
                "pruned_infeasible": bnb.pruned_infeasible,
                "pruned_bound": bnb.pruned_bound,
            }
        if result is None:
            return Allocation(
                scheme=self.name, schedulable=False, failed_task=None
            )
        info = {
            "explored": result.explored,
            "pruned": result.pruned,
            "tightness": result.tightness,
            **stats,
        }
        return as_allocation(
            self.name, system, result.assignment, result.periods, info=info
        )
