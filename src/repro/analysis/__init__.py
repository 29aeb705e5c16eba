"""Schedulability analysis substrate (paper Sec. II–III).

``docs/analysis.md`` is the layer's API reference.

* :mod:`repro.analysis.dbf` — demand bound function and the Eq. (1)
  necessary feasibility condition.
* :mod:`repro.analysis.interference` — the linearised interference bound
  of Eq. (5) and the aggregate :class:`InterferenceEnv`.
* :mod:`repro.analysis.rta` — exact response-time analysis: the scalar
  solver behind every exact verdict, plus the numpy solver behind the
  ``rta-batch`` admission test.
* :mod:`repro.analysis.admission` — incremental exact-RTA admission
  state for the partitioning inner loop, verdict-identical to
  ``rta_test``.
* :mod:`repro.analysis.schedulability` — utilisation bounds, admission
  tests and whole-partition checks.
* :mod:`repro.analysis.slack` — per-core idle-capacity accounting.
"""

from repro.analysis.admission import ExactAdmissionCore
from repro.analysis.blocking import (
    max_tolerable_blocking,
    rt_schedulable_with_blocking,
)
from repro.analysis.dbf import (
    dbf_check_points,
    demand_bound,
    necessary_condition,
    total_demand,
)
from repro.analysis.hyperperiod import hyperperiod, recommended_horizon
from repro.analysis.interference import (
    InterferenceEnv,
    Interferer,
    linear_bound_met,
    linear_interference,
    min_feasible_period,
)
from repro.analysis.rta import (
    core_response_times,
    response_time,
    response_time_env,
    response_times_batch,
    rta_schedulable,
    rta_schedulable_batch,
)
from repro.analysis.schedulability import (
    AdmissionTest,
    breakdown_utilization,
    get_admission_test,
    hyperbolic_test,
    liu_layland_bound,
    liu_layland_test,
    partition_schedulable,
    rta_test,
    security_schedulable_on_core,
    utilization_test,
)
from repro.analysis.slack import CoreSlack, core_slack, partition_slack

__all__ = [
    "ExactAdmissionCore",
    "demand_bound",
    "total_demand",
    "dbf_check_points",
    "necessary_condition",
    "Interferer",
    "InterferenceEnv",
    "linear_interference",
    "linear_bound_met",
    "min_feasible_period",
    "response_time",
    "response_time_env",
    "core_response_times",
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
    "partition_schedulable",
    "security_schedulable_on_core",
    "breakdown_utilization",
    "CoreSlack",
    "core_slack",
    "partition_slack",
    "rt_schedulable_with_blocking",
    "max_tolerable_blocking",
    "hyperperiod",
    "recommended_horizon",
]
