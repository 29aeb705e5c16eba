"""Admission tests for fixed-priority single cores.

The partitioning heuristics (paper Sec. IV-B uses best-fit) need an
admission test for "does this core still accept this task".  Three tests
of increasing precision are provided:

* :func:`liu_layland_test` — the classic ``U ≤ n(2^{1/n} − 1)`` bound.
* :func:`hyperbolic_test` — Bini–Buttazzo ``Π(U_i + 1) ≤ 2``, strictly
  dominates Liu–Layland.
* :func:`rta_test` — exact response-time analysis, the default.
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.analysis.rta import rta_schedulable, rta_schedulable_batch
from repro.model.task import RealTimeTask, total_utilization

__all__ = [
    "liu_layland_bound",
    "liu_layland_test",
    "hyperbolic_test",
    "utilization_test",
    "rta_test",
    "rta_batch_test",
    "AdmissionTest",
    "ADMISSION_TESTS",
    "get_admission_test",
]

#: Signature of a per-core admission test: given the full set of
#: real-time tasks proposed for one core, return whether the core can
#: schedule all of them under RM.
AdmissionTest = Callable[[Sequence[RealTimeTask]], bool]


def liu_layland_bound(n: int) -> float:
    """The Liu & Layland utilisation bound ``n(2^{1/n} − 1)`` for ``n``
    tasks (→ ln 2 ≈ 0.693 as ``n`` grows)."""
    if n <= 0:
        return 0.0
    return n * (2.0 ** (1.0 / n) - 1.0)


def liu_layland_test(tasks: Sequence[RealTimeTask]) -> bool:
    """Sufficient RM test: total utilisation, added left to right
    (:func:`~repro.model.task.total_utilization`), within the LL
    bound."""
    total = total_utilization(tasks)
    return total <= liu_layland_bound(len(tasks)) + 1e-12


def hyperbolic_test(tasks: Sequence[RealTimeTask]) -> bool:
    """Bini–Buttazzo hyperbolic bound: ``Π (U_i + 1) ≤ 2``."""
    product = 1.0
    for task in tasks:
        product *= task.utilization + 1.0
        if product > 2.0 + 1e-12:
            return False
    return True


def utilization_test(tasks: Sequence[RealTimeTask]) -> bool:
    """Necessary-only test ``Σ U ≤ 1`` (added left to right); useful as
    the most permissive admission policy for design-space
    exploration."""
    return total_utilization(tasks) <= 1.0 + 1e-12


def rta_test(tasks: Sequence[RealTimeTask]) -> bool:
    """Exact RM schedulability via scalar response-time analysis
    (:func:`repro.analysis.rta.rta_schedulable`), the default test at
    every core size.

    The partitioning heuristics never call it for the name ``rta``:
    they probe an :class:`~repro.analysis.admission.ExactAdmissionCore`
    instead, and this from-scratch test is the oracle that pins that
    incremental path verdict for verdict."""
    return rta_schedulable(tasks)


def rta_batch_test(tasks: Sequence[RealTimeTask]) -> bool:
    """Exact RM schedulability via the numpy solver
    (:func:`repro.analysis.rta.rta_schedulable_batch`); agrees with
    :func:`rta_test` except when a response time lies within a few ulp
    of its deadline."""
    return rta_schedulable_batch(tasks)


_TESTS: dict[str, AdmissionTest] = {
    "rta": rta_test,
    "rta-batch": rta_batch_test,
    "hyperbolic": hyperbolic_test,
    "liu-layland": liu_layland_test,
    "utilization": utilization_test,
}


#: Known admission-test names, in registration order (the scenario
#: validator and the CLI list consume this instead of private state).
ADMISSION_TESTS = tuple(_TESTS)


def get_admission_test(name: str) -> AdmissionTest:
    """Look up an admission test by name (``rta``, ``hyperbolic``,
    ``liu-layland`` or ``utilization``)."""
    try:
        return _TESTS[name]
    except KeyError:
        from repro.errors import ConfigError

        raise ConfigError(
            f"unknown admission test {name!r}; known tests: "
            f"{', '.join(sorted(_TESTS))}"
        ) from None
