"""Security-task allocation schemes — the paper's core contribution.

* :class:`~repro.core.hydra.HydraAllocator` — Algorithm 1, and the one
  greedy walk every core-by-core allocator runs: each variant swaps in
  only the cores a task may probe or the rule that picks one.
* :class:`~repro.core.singlecore.SingleCoreAllocator` — the dedicated-
  core baseline (plus :func:`~repro.core.singlecore.build_singlecore_system`):
  the walk on the dedicated core alone.
* :class:`~repro.core.nonpreemptive.NonPreemptiveHydraAllocator` — the
  walk over the cores whose blocking budget admits each task.
* :class:`~repro.core.optimal.OptimalAllocator` — the exhaustive /
  branch-and-bound optimum.
* :mod:`repro.core.variants` — the ``first-feasible`` and
  ``slackiest-core`` core rules and the LP-refined HYDRA.
"""

from repro.core.advice import (
    DesignHint,
    DesignReport,
    diagnose,
    max_security_scale,
)
from repro.core.allocator import Allocator
from repro.core.hydra import PERIOD_SOLVERS, HydraAllocator
from repro.core.nonpreemptive import NonPreemptiveHydraAllocator
from repro.core.optimal import OptimalAllocator
from repro.core.singlecore import SingleCoreAllocator, build_singlecore_system
from repro.core.verify import (
    VerificationResult,
    Violation,
    verify_allocation,
)
from repro.core.variants import LpRefinedHydraAllocator
from repro.model.allocation import (
    Allocation,
    AllocationResult,
    SecurityAssignment,
    as_allocation,
)

__all__ = [
    "Allocation",
    "AllocationResult",
    "Allocator",
    "SecurityAssignment",
    "as_allocation",
    "HydraAllocator",
    "PERIOD_SOLVERS",
    "SingleCoreAllocator",
    "build_singlecore_system",
    "OptimalAllocator",
    "NonPreemptiveHydraAllocator",
    "LpRefinedHydraAllocator",
    "DesignHint",
    "DesignReport",
    "diagnose",
    "max_security_scale",
    "Violation",
    "VerificationResult",
    "verify_allocation",
]
