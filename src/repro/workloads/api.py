"""The workload-generator protocol and its serialised form.

A *workload generator* is the supply side of the design space: given a
platform, a target utilisation, and a random stream, it produces one
:class:`~repro.taskgen.synthetic.SyntheticWorkload` (real-time tasks +
security tasks).  Every generator implements this one protocol and
registers itself with :func:`repro.workloads.register_workload`, after
which TOML scenario grids (``[grid] workload = [...]``), the
``repro-hydra workloads`` / ``--workload`` CLI surface, and the point
runners all reach it by spec string.

Contract (audited for every registered generator by
``tests/workloads/test_workload_properties.py``):

* all WCETs strictly positive;
* same stream ⇒ byte-identical task sets (serial and pooled runs
  included — generators must draw *only* from the ``rng`` they are
  given);
* when the generator is synthetic-recipe-backed (``config`` is not
  ``None``): task counts and periods inside the configured bounds,
  achieved total utilisation on target, and desired security
  utilisation at most ``security_utilization_fraction`` of the
  real-time utilisation;
* fixed-point case studies (tag ``"case-study"``) may ignore the
  utilisation target — their parameters *are* the workload.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Mapping

import numpy as np

from repro.model.platform import Platform
from repro.taskgen.synthetic import SyntheticConfig, SyntheticWorkload

__all__ = ["WorkloadGenerator", "workload_to_dict", "workload_from_dict"]


class WorkloadGenerator(ABC):
    """One workload family: ``generate(platform, U, rng) -> workload``.

    Attributes
    ----------
    name:
        Registry spec; must equal the name the generator is registered
        under (spec strings double as sweep-cell label prefixes).
    config:
        The :class:`SyntheticConfig` describing the generator's bounds
        when it is built on the synthetic recipe, else ``None`` (fixed
        case studies).  The shared property suite derives its
        period/count/cap assertions from it.
    """

    name: str = ""
    config: SyntheticConfig | None = None

    @abstractmethod
    def generate(
        self,
        platform: Platform | int,
        total_utilization: float,
        rng: np.random.Generator | int | None = None,
    ) -> SyntheticWorkload:
        """One task-set instance at the target utilisation."""


def workload_to_dict(workload: SyntheticWorkload) -> dict[str, Any]:
    """Plain-JSON form of one generated instance (stable keys).

    The canonical JSON of this dict is what the determinism tests and
    the ``workload-sample`` point runner byte-compare; the task content
    round-trips through :mod:`repro.io`.
    """
    # Imported here: parsing a scenario with a workload axis imports
    # this module on the request path, and only sampling needs repro.io.
    from repro.io import taskset_to_dict

    return {
        "cores": workload.platform.num_cores,
        "target_utilization": workload.target_utilization,
        "rt_tasks": taskset_to_dict(workload.rt_tasks),
        "security_tasks": taskset_to_dict(workload.security_tasks),
    }


def workload_from_dict(data: Mapping[str, Any]) -> SyntheticWorkload:
    """Inverse of :func:`workload_to_dict` (default recipe config)."""
    from repro.io import taskset_from_dict

    return SyntheticWorkload(
        platform=Platform(int(data["cores"])),
        rt_tasks=taskset_from_dict(data["rt_tasks"]),
        security_tasks=taskset_from_dict(data["security_tasks"]),
        target_utilization=float(data["target_utilization"]),
    )
