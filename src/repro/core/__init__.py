"""Security-task allocation schemes — the paper's core contribution.

* :class:`~repro.core.hydra.HydraAllocator` — Algorithm 1.
* :class:`~repro.core.singlecore.SingleCoreAllocator` — the dedicated-
  core baseline (plus :func:`~repro.core.singlecore.build_singlecore_system`).
* :class:`~repro.core.optimal.OptimalAllocator` — the exhaustive /
  branch-and-bound optimum.
* Ablation variants in :mod:`repro.core.variants`.
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
from repro.core.variants import (
    FirstFeasibleAllocator,
    LpRefinedHydraAllocator,
    SlackiestCoreAllocator,
)
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
    "FirstFeasibleAllocator",
    "SlackiestCoreAllocator",
    "LpRefinedHydraAllocator",
    "DesignHint",
    "DesignReport",
    "diagnose",
    "max_security_scale",
    "Violation",
    "VerificationResult",
    "verify_allocation",
]
