"""Workload synthesis (paper Sec. IV).

* :mod:`repro.taskgen.randfixedsum` — unbiased utilisation splitting.
* :mod:`repro.taskgen.uunifast` — the UUniFast(-Discard) splitters.
* :mod:`repro.taskgen.periods` — period sampling policies.
* :mod:`repro.taskgen.synthetic` — the Sec. IV-B synthetic recipe, one
  task set per call.
* :mod:`repro.taskgen.uav` — the Sec. IV-A UAV case-study task set.
* :mod:`repro.taskgen.security_apps` — the Table I Tripwire/Bro suite.

Named *generators* over these primitives — the paper recipe, UUniFast
variants, period regimes, heavy-security profiles, case studies — live
in the :mod:`repro.workloads` registry.
"""

from repro.taskgen.periods import sample_periods
from repro.taskgen.randfixedsum import randfixedsum
from repro.taskgen.security_apps import (
    TABLE1_SPECS,
    TRIPWIRE_PRECEDENCE,
    SecurityAppSpec,
    table1_security_tasks,
)
from repro.taskgen.synthetic import (
    UTILIZATION_SPLITS,
    SyntheticConfig,
    SyntheticWorkload,
    generate_workload,
    utilization_sweep,
)
from repro.taskgen.uav import UAV_TASK_TABLE, uav_rt_tasks
from repro.taskgen.uunifast import project_box_sum, uunifast, uunifast_discard

__all__ = [
    "randfixedsum",
    "sample_periods",
    "uunifast",
    "uunifast_discard",
    "project_box_sum",
    "UTILIZATION_SPLITS",
    "SyntheticConfig",
    "SyntheticWorkload",
    "generate_workload",
    "utilization_sweep",
    "UAV_TASK_TABLE",
    "uav_rt_tasks",
    "SecurityAppSpec",
    "TABLE1_SPECS",
    "TRIPWIRE_PRECEDENCE",
    "table1_security_tasks",
]
