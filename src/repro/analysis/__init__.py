"""Schedulability analysis substrate (paper Sec. II–III).

``docs/analysis.md`` is the layer's API reference.

* :mod:`repro.analysis.interference` — the linearised interference bound
  of Eq. (5) and the aggregate :class:`InterferenceEnv`.
* :mod:`repro.analysis.rta` — exact response-time analysis: the scalar
  solver behind every exact verdict, plus the numpy solver behind the
  ``rta-batch`` admission test.
* :mod:`repro.analysis.admission` — incremental exact-RTA admission
  state for the partitioning inner loop, verdict-identical to
  ``rta_test``.
* :mod:`repro.analysis.schedulability` — utilisation bounds and the
  registered admission tests.
* :mod:`repro.analysis.blocking` — the non-preemptive blocking bound.
"""

from repro.analysis.admission import ExactAdmissionCore
from repro.analysis.blocking import (
    max_tolerable_blocking,
    rt_schedulable_with_blocking,
)
from repro.analysis.interference import (
    InterferenceEnv,
    Interferer,
    min_feasible_period,
)
from repro.analysis.rta import (
    response_time,
    response_times_batch,
    rta_schedulable,
    rta_schedulable_batch,
)
from repro.analysis.schedulability import (
    AdmissionTest,
    get_admission_test,
    hyperbolic_test,
    liu_layland_bound,
    liu_layland_test,
    rta_test,
    utilization_test,
)

__all__ = [
    "ExactAdmissionCore",
    "Interferer",
    "InterferenceEnv",
    "min_feasible_period",
    "response_time",
    "response_times_batch",
    "rta_schedulable",
    "rta_schedulable_batch",
    "AdmissionTest",
    "liu_layland_bound",
    "liu_layland_test",
    "hyperbolic_test",
    "utilization_test",
    "rta_test",
    "get_admission_test",
    "rt_schedulable_with_blocking",
    "max_tolerable_blocking",
]
