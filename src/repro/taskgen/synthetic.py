"""The paper's synthetic workload recipe (Sec. IV-B).

Per task-set instance on an ``M``-core platform:

* ``[3M, 10M]`` real-time tasks with periods in ``[10, 1000]`` ms;
* ``[2M, 5M]`` security tasks with desired periods in ``[1000, 3000]``
  ms and ``T_max = 10·T_des``;
* a target total utilisation ``U ∈ {0.025M, …, 0.975M}`` split across
  tasks with Randfixedsum;
* security utilisation capped at 30 % of the real-time utilisation.

The recipe fixes the split at the cap (``U_S = 0.3·U_R``, i.e.
``U_R = U/1.3``), which satisfies the paper's "no more than 30 %"
condition while maximally exercising the security side; the fraction is
configurable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from repro.errors import ValidationError
from repro.model.platform import Platform
from repro.model.task import RealTimeTask, SecurityTask, TaskSet
from repro.taskgen.periods import sample_periods
from repro.taskgen.randfixedsum import randfixedsum
from repro.taskgen.uunifast import project_box_sum, uunifast, uunifast_discard

__all__ = ["SyntheticConfig", "SyntheticWorkload", "UTILIZATION_SPLITS",
           "generate_workload", "utilization_sweep"]

#: Floor for per-task utilisation so WCETs stay strictly positive.
_MIN_TASK_UTIL = 1e-5

#: Accepted ``split`` policies: how a total utilisation is divided
#: across tasks.  ``randfixedsum`` is the paper's recipe; the UUniFast
#: pair back the ``uunifast``/``uunifast-discard`` workload families.
UTILIZATION_SPLITS = ("randfixedsum", "uunifast", "uunifast-discard")


@dataclass(frozen=True)
class SyntheticConfig:
    """Knobs of the synthetic generator, defaulting to the paper's values."""

    rt_tasks_per_core: tuple[int, int] = (3, 10)
    security_tasks_per_core: tuple[int, int] = (2, 5)
    #: Absolute task-count overrides; when set they win over the
    #: per-core ranges (Fig. 3 uses ``security_task_count=(2, 6)``).
    rt_task_count: tuple[int, int] | None = None
    security_task_count: tuple[int, int] | None = None
    rt_period_range: tuple[float, float] = (10.0, 1000.0)
    security_period_des_range: tuple[float, float] = (1000.0, 3000.0)
    period_max_factor: float = 10.0
    security_utilization_fraction: float = 0.3
    period_distribution: str = "log-uniform"
    period_granularity: float | None = None

    def __post_init__(self) -> None:
        for name, bounds in (
            ("rt_tasks_per_core", self.rt_tasks_per_core),
            ("security_tasks_per_core", self.security_tasks_per_core),
            ("rt_task_count", self.rt_task_count),
            ("security_task_count", self.security_task_count),
        ):
            if bounds is None:
                continue
            lo, hi = bounds
            if lo < 1 or hi < lo:
                raise ValidationError(f"invalid {name} range ({lo}, {hi})")
        for name, (lo, hi) in (
            ("rt_period_range", self.rt_period_range),
            ("security_period_des_range", self.security_period_des_range),
        ):
            if lo <= 0 or hi < lo:
                raise ValidationError(f"invalid {name} ({lo}, {hi})")
        if self.period_max_factor < 1.0:
            raise ValidationError(
                f"period_max_factor must be ≥ 1, got {self.period_max_factor}"
            )
        if not (0.0 < self.security_utilization_fraction <= 1.0):
            raise ValidationError(
                "security_utilization_fraction must lie in (0, 1], got "
                f"{self.security_utilization_fraction}"
            )


@dataclass(frozen=True)
class SyntheticWorkload:
    """One generated task-set instance."""

    platform: Platform
    rt_tasks: TaskSet
    security_tasks: TaskSet
    target_utilization: float
    config: SyntheticConfig = field(repr=False, default=SyntheticConfig())

    @property
    def rt_utilization(self) -> float:
        return sum(t.utilization for t in self.rt_tasks)

    @property
    def security_utilization_des(self) -> float:
        return sum(t.utilization_des for t in self.security_tasks)

    @property
    def total_utilization(self) -> float:
        """Total achieved utilisation (security counted at desired rate)."""
        return self.rt_utilization + self.security_utilization_des


def _split_utilization(
    total: float,
    count: int,
    rng: np.random.Generator,
    split: str = "randfixedsum",
) -> np.ndarray:
    """Split ``total`` across ``count`` tasks (one vector of shape
    ``(count,)``).

    Every share ends strictly positive (≥ ``_MIN_TASK_UTIL``) and at
    most full-core load; the box projection redistributes whatever the
    clamp moved, so the vector still sums to ``total`` exactly — the
    raw ``maximum(utils, floor)`` clamp used to drift *above* target by
    up to ``count·1e-5`` at extreme low-utilisation corners.

    .. note:: Cache keys did not change with this fix itself, so a
       store of that time could hold drifting-clamp entries at those
       corner points.  Every key written before ``CACHE_FORMAT`` 4 is
       retired (:mod:`repro.experiments.store`), so no store serves
       one any more.  Draws the clamp never touched, including every
       golden fixture, were bit-identical across the fix.
    """
    if count == 0:
        return np.zeros(0)
    total = min(total, count * 1.0)
    if split == "randfixedsum":
        utils = randfixedsum(count, total, 1, rng, low=0.0, high=1.0)
    elif split == "uunifast":
        utils = uunifast(count, total, 1, rng)
    elif split == "uunifast-discard":
        utils = uunifast_discard(count, total, 1, rng)
    else:
        raise ValidationError(
            f"unknown utilisation split {split!r}; expected one of "
            f"{UTILIZATION_SPLITS}"
        )
    return project_box_sum(utils, total, low=_MIN_TASK_UTIL, high=1.0)[0]


def _count_bounds(
    config: SyntheticConfig, m: int
) -> tuple[int, int, int, int]:
    """Effective (rt_lo, rt_hi, sec_lo, sec_hi) task-count bounds."""
    if config.rt_task_count is not None:
        nr_lo, nr_hi = config.rt_task_count
    else:
        nr_lo = config.rt_tasks_per_core[0] * m
        nr_hi = config.rt_tasks_per_core[1] * m
    if config.security_task_count is not None:
        ns_lo, ns_hi = config.security_task_count
    else:
        ns_lo = config.security_tasks_per_core[0] * m
        ns_hi = config.security_tasks_per_core[1] * m
    return nr_lo, nr_hi, ns_lo, ns_hi


def _build_tasks(
    rt_utils: np.ndarray,
    rt_periods: np.ndarray,
    sec_utils: np.ndarray,
    sec_periods: np.ndarray,
    config: SyntheticConfig,
) -> tuple[TaskSet, TaskSet]:
    rt_tasks = TaskSet(
        RealTimeTask(
            name=f"rt{i:03d}",
            wcet=float(u * p),
            period=float(p),
        )
        for i, (u, p) in enumerate(zip(rt_utils, rt_periods))
    )
    security_tasks = TaskSet(
        SecurityTask(
            name=f"sec{i:03d}",
            wcet=float(u * p),
            period_des=float(p),
            period_max=float(p * config.period_max_factor),
        )
        for i, (u, p) in enumerate(zip(sec_utils, sec_periods))
    )
    return rt_tasks, security_tasks


def generate_workload(
    platform: Platform | int,
    total_utilization: float,
    rng: np.random.Generator | int | None = None,
    config: SyntheticConfig | None = None,
    split: str = "randfixedsum",
) -> SyntheticWorkload:
    """Generate one synthetic task set per the paper's recipe.

    Parameters
    ----------
    platform:
        The platform (or a plain core count ``M``).
    total_utilization:
        Target combined utilisation (real-time + security-at-desired-rate);
        must lie in ``(0, M]``.
    rng:
        Numpy generator, an integer seed, or ``None`` for a fresh
        generator.
    config:
        Generation knobs; defaults to the paper's parameters.
    split:
        Utilisation-splitting policy (:data:`UTILIZATION_SPLITS`); the
        default Randfixedsum is the paper's recipe, the UUniFast pair
        backs the corresponding :mod:`repro.workloads` families.
    """
    if isinstance(platform, int):
        platform = Platform(platform)
    if config is None:
        config = SyntheticConfig()
    if isinstance(rng, int) or rng is None:
        rng = np.random.default_rng(rng)
    m = platform.num_cores
    if not (0.0 < total_utilization <= m + 1e-9):
        raise ValidationError(
            f"total utilisation {total_utilization} outside (0, {m}]"
        )

    frac = config.security_utilization_fraction
    rt_util = total_utilization / (1.0 + frac)
    sec_util = total_utilization - rt_util

    nr_lo, nr_hi, ns_lo, ns_hi = _count_bounds(config, m)
    nr = int(rng.integers(nr_lo, nr_hi + 1))
    ns = int(rng.integers(ns_lo, ns_hi + 1))

    rt_utils = _split_utilization(rt_util, nr, rng, split)
    rt_periods = sample_periods(
        nr,
        *config.rt_period_range,
        rng=rng,
        distribution=config.period_distribution,
        granularity=config.period_granularity,
    )
    sec_utils = _split_utilization(sec_util, ns, rng, split)
    sec_periods = sample_periods(
        ns,
        *config.security_period_des_range,
        rng=rng,
        distribution=config.period_distribution,
        granularity=config.period_granularity,
    )
    rt_tasks, security_tasks = _build_tasks(
        rt_utils, rt_periods, sec_utils, sec_periods, config
    )

    return SyntheticWorkload(
        platform=platform,
        rt_tasks=rt_tasks,
        security_tasks=security_tasks,
        target_utilization=total_utilization,
        config=config,
    )


def utilization_sweep(
    platform: Platform | int,
    step_fraction: float = 0.025,
    start_fraction: float = 0.025,
    stop_fraction: float = 0.975,
) -> Iterator[float]:
    """The paper's utilisation grid: ``0.025M, 0.05M, …, 0.975M``.

    Yields absolute utilisation values for the given platform.
    """
    m = platform.num_cores if isinstance(platform, Platform) else platform
    if not (0.0 < start_fraction <= stop_fraction <= 1.0):
        raise ValidationError("invalid sweep fractions")
    steps = int(round((stop_fraction - start_fraction) / step_fraction)) + 1
    for k in range(steps):
        yield (start_fraction + k * step_fraction) * m
