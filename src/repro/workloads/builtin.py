"""Registration of every built-in workload family.

Imported by the registry on its first lookup, so ``import
repro.workloads`` alone stays cheap.  Spec strings equal
the produced generators' ``name`` attributes — sweep-cell label
prefixes survive the trip through a JSON sweep spec and resolve back
to the family that generated the task sets.

The table below is the workload side of the design space: the paper's
Sec. IV-B recipe (``paper-synthetic``, byte-identical to calling
:func:`repro.taskgen.synthetic.generate_workload` directly), the
UUniFast splitter pair, the period-regime variants (every order of
magnitude equally likely vs. plain uniform vs. harmonic powers of
two), a heavy-security profile in the spirit of Contego / the period-
adaptation follow-ups (Hasan et al. 2017/2019), and the two fixed
case studies (Sec. IV-A UAV + the Table I Tripwire/Bro suite).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.model.platform import Platform
from repro.model.task import TaskSet
from repro.taskgen.security_apps import table1_security_tasks
from repro.taskgen.synthetic import (
    SyntheticConfig,
    SyntheticWorkload,
    generate_workload,
)
from repro.taskgen.uav import uav_rt_tasks
from repro.workloads.api import WorkloadGenerator
from repro.workloads.registry import register_workload

__all__ = [
    "SyntheticRecipeWorkload",
    "CaseStudyWorkload",
    "heavy_security_workload",
]


class SyntheticRecipeWorkload(WorkloadGenerator):
    """A family built on the Sec. IV-B recipe: one config, one splitter.

    ``generate`` delegates to :func:`generate_workload`, so the
    ``paper-synthetic`` instance is byte-identical to direct calls.
    """

    def __init__(
        self,
        name: str,
        config: SyntheticConfig | None = None,
        split: str = "randfixedsum",
    ) -> None:
        self.name = name
        self.config = config if config is not None else SyntheticConfig()
        self.split = split

    def generate(
        self,
        platform: Platform | int,
        total_utilization: float,
        rng: np.random.Generator | int | None = None,
    ) -> SyntheticWorkload:
        return generate_workload(
            platform, total_utilization, rng, self.config, split=self.split
        )


class CaseStudyWorkload(WorkloadGenerator):
    """A fixed-point family: the parameters *are* the workload.

    Ignores the utilisation target and the random stream entirely —
    every call returns the same task sets (rebuilt from the factories,
    so instances never share mutable state).  ``config`` is ``None``:
    the shared property suite only holds fixed families to positivity
    and determinism, not to the synthetic recipe's bounds.
    """

    config = None

    def __init__(
        self,
        name: str,
        rt_factory: Callable[[], TaskSet],
        security_factory: Callable[[], TaskSet],
    ) -> None:
        self.name = name
        self._rt_factory = rt_factory
        self._security_factory = security_factory

    def generate(
        self,
        platform: Platform | int,
        total_utilization: float,
        rng: np.random.Generator | int | None = None,
    ) -> SyntheticWorkload:
        if isinstance(platform, int):
            platform = Platform(platform)
        rt_tasks = self._rt_factory()
        security_tasks = self._security_factory()
        achieved = sum(t.utilization for t in rt_tasks) + sum(
            t.utilization_des for t in security_tasks
        )
        return SyntheticWorkload(
            platform=platform,
            rt_tasks=rt_tasks,
            security_tasks=security_tasks,
            target_utilization=achieved,
        )


def heavy_security_workload(
    security_utilization_fraction: float = 0.6,
    security_tasks_per_core: tuple[int, int] = (4, 10),
    name: str = "heavy-security",
) -> SyntheticRecipeWorkload:
    """The heavy-security profile, knobs exposed.

    The paper fixes the security share of the load at 30% of the
    real-time utilisation with 2–5 security tasks per core; monitoring-
    heavy deployments (Contego-style continuous checking) push both.
    The registered instance doubles the fraction and the per-core task
    count; build your own with different knobs and register it under a
    new name for a custom profile sweep.
    """
    config = SyntheticConfig(
        security_utilization_fraction=security_utilization_fraction,
        security_tasks_per_core=tuple(security_tasks_per_core),
    )
    return SyntheticRecipeWorkload(name, config)


register_workload(
    "paper-synthetic",
    title="The paper's Sec. IV-B recipe (Randfixedsum, log-uniform periods)",
    description=(
        "Byte-identical to calling generate_workload directly: "
        "Randfixedsum utilisation split, log-uniform periods, 3-10 "
        "real-time and 2-5 security tasks per core, security share "
        "30% of the real-time utilisation."
    ),
    tags=("paper",),
)(lambda: SyntheticRecipeWorkload("paper-synthetic"))

register_workload(
    "uunifast",
    title="Classic UUniFast utilisation split (Bini & Buttazzo 2005)",
    description=(
        "The paper's recipe with Randfixedsum swapped for the O(n) "
        "UUniFast splitter; components are unbounded above, so "
        "multicore draws are projected back into [floor, 1] while "
        "keeping the target sum exact."
    ),
    tags=("splitter",),
)(lambda: SyntheticRecipeWorkload("uunifast", split="uunifast"))

register_workload(
    "uunifast-discard",
    title="UUniFast-Discard split (Emberson et al. 2010)",
    description=(
        "UUniFast with inadmissible vectors (any per-task utilisation "
        "above 1) resampled until every draw fits a core — the "
        "standard unbiased multicore variant."
    ),
    tags=("splitter",),
)(lambda: SyntheticRecipeWorkload(
    "uunifast-discard", split="uunifast-discard"
))

register_workload(
    "uniform-periods",
    title="Paper recipe with plain-uniform period sampling",
    description=(
        "Periods drawn uniformly from the paper's ranges instead of "
        "log-uniformly: long-period tasks dominate, so per-task "
        "utilisations ride on much larger WCETs."
    ),
    tags=("periods",),
)(lambda: SyntheticRecipeWorkload(
    "uniform-periods",
    SyntheticConfig(period_distribution="uniform"),
))

register_workload(
    "harmonic-periods",
    title="Paper recipe with harmonic (power-of-two) periods",
    description=(
        "Every period is a power-of-two multiple of the range's lower "
        "bound, so each period divides every longer one — tiny "
        "hyperperiods, the classic best case for rate-monotonic "
        "analysis."
    ),
    tags=("periods",),
)(lambda: SyntheticRecipeWorkload(
    "harmonic-periods",
    SyntheticConfig(period_distribution="harmonic"),
))

register_workload(
    "heavy-security",
    title="Monitoring-heavy profile: 60% security share, 4-10 tasks/core",
    description=(
        "The synthetic recipe with the security share of the load "
        "doubled to 60% of the real-time utilisation and 4-10 "
        "security tasks per core — the continuous-monitoring regime "
        "of Contego / the period-adaptation follow-ups (Hasan et al. "
        "2017/2019).  heavy_security_workload() exposes both knobs "
        "for custom profiles."
    ),
    tags=("profile",),
)(heavy_security_workload)

register_workload(
    "uav-case-study",
    title="Fixed Sec. IV-A case study: UAV flight control + Table I suite",
    description=(
        "The six UAV real-time tasks (fast/slow navigation, "
        "controller, guidance, missile control, reconnaissance) "
        "paired with the six Tripwire/Bro security tasks of Table I. "
        "Fixed-point: ignores the utilisation target and the random "
        "stream."
    ),
    tags=("case-study", "paper"),
)(lambda: CaseStudyWorkload(
    "uav-case-study", uav_rt_tasks, table1_security_tasks
))

register_workload(
    "table1-suite",
    title="Fixed Table I security suite on an otherwise idle platform",
    description=(
        "The six Tripwire/Bro security tasks with no real-time load "
        "at all — isolates how a strategy spreads the monitoring "
        "suite itself.  Fixed-point: ignores the utilisation target "
        "and the random stream."
    ),
    tags=("case-study",),
)(lambda: CaseStudyWorkload(
    "table1-suite", lambda: TaskSet([]), table1_security_tasks
))
