"""The paper's linearised interference bound (Eq. 5) and its closed-form
consequences.

A security task ``τs`` placed on core ``m`` runs below every real-time
task on ``m`` and below every *higher-priority* security task already
assigned to ``m``.  Eq. (5) upper-bounds the interference it suffers in a
window of length ``Ts`` by

    I_s^m = Σ_{r on m} (1 + Ts/Tr)·Cr + Σ_{h ∈ hpS(s) on m} (1 + Ts/Th)·Ch

(the linear envelope of the exact ``⌈Ts/T⌉·C`` term, chosen by the paper
because it is a posynomial and hence GP-compatible).  The schedulability
constraint (Eq. 6) is ``Cs + I_s^m ≤ Ts``.

Grouping the interferers by their aggregate WCET ``K' = Σ C`` and
utilisation ``U = Σ C/T`` turns Eq. (6) into the single linear inequality

    Cs + K' + U·Ts ≤ Ts,

which drives both the closed-form period optimiser
(:mod:`repro.opt.period`) and the joint LP (:mod:`repro.opt.joint`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.errors import ValidationError
from repro.model.task import RealTimeTask, SecurityTask

__all__ = [
    "Interferer",
    "InterferenceEnv",
    "min_feasible_period",
]


@dataclass(frozen=True, slots=True)
class Interferer:
    """A higher-priority task as seen by the analysis: just ``(C, T)``.

    Both real-time tasks (fixed periods) and already-assigned security
    tasks (periods fixed by an earlier allocation step) reduce to this.
    """

    wcet: float
    period: float

    def __post_init__(self) -> None:
        if self.wcet <= 0 or self.period <= 0:
            raise ValidationError(
                f"interferer needs positive wcet/period, got "
                f"C={self.wcet!r}, T={self.period!r}"
            )

    @property
    def utilization(self) -> float:
        """``C / T``, the interferer's long-run processor share."""
        return self.wcet / self.period

    @classmethod
    def from_rt(cls, task: RealTimeTask) -> "Interferer":
        """Reduce a real-time task to its ``(C, T)`` pair."""
        return cls(task.wcet, task.period)

    @classmethod
    def from_security(cls, task: SecurityTask, period: float) -> "Interferer":
        """Reduce a security task at its assigned ``period`` to ``(C, T)``."""
        return cls(task.wcet, period)


class InterferenceEnv:
    """The aggregate interference environment of one core.

    Precomputes ``K' = Σ C`` and ``U = Σ C/T`` over the interferers so
    that per-candidate-period queries are O(1).  Both sums add left to
    right from ``0.0``: the builtin ``sum`` of floats is compensated from
    Python 3.12 on, which would move ``K'``, ``U`` and every period
    derived from them with the interpreter version.
    """

    __slots__ = ("_interferers", "_total_wcet", "_utilization")

    def __init__(self, interferers: Iterable[Interferer] = ()) -> None:
        self._interferers = tuple(interferers)
        total_wcet = utilization = 0.0
        for interferer in self._interferers:
            total_wcet += interferer.wcet
            utilization += interferer.utilization
        self._total_wcet = total_wcet
        self._utilization = utilization

    @classmethod
    def on_core(
        cls,
        rt_tasks: Iterable[RealTimeTask],
        hp_security: Iterable[tuple[SecurityTask, float]] = (),
    ) -> "InterferenceEnv":
        """Build the environment from the real-time tasks partitioned to a
        core plus the ``(task, period)`` pairs of higher-priority security
        tasks already assigned there."""
        interferers = [Interferer.from_rt(t) for t in rt_tasks]
        interferers.extend(
            Interferer.from_security(t, period) for t, period in hp_security
        )
        return cls(interferers)

    @property
    def interferers(self) -> tuple[Interferer, ...]:
        """The ``(C, T)`` pairs this environment aggregates."""
        return self._interferers

    @property
    def total_wcet(self) -> float:
        """``K' = Σ C`` over all interferers."""
        return self._total_wcet

    @property
    def utilization(self) -> float:
        """``U = Σ C/T`` over all interferers."""
        return self._utilization

    def extended(self, extra: Iterable[Interferer]) -> "InterferenceEnv":
        """Environment with additional interferers appended.

        The sums are recomputed over the whole tuple in order, so a
        chain of ``extended`` calls gives the very floats of one
        :meth:`on_core` call over the same interferers.
        """
        return InterferenceEnv((*self._interferers, *extra))

    def interference(self, period: float) -> float:
        """Eq. (5): linearised interference in a window of length
        ``period``."""
        if period <= 0:
            raise ValidationError(f"window length must be positive: {period!r}")
        return self._total_wcet + self._utilization * period


def min_feasible_period(task: SecurityTask, env: InterferenceEnv) -> float:
    """Smallest period satisfying Eq. (6), ignoring the ``[T_des, T_max]``
    box.

    From ``Cs + K' + U·T ≤ T`` the minimum is ``(Cs + K')/(1 − U)``;
    returns ``inf`` when the interferer utilisation ``U ≥ 1`` (the core
    has no spare capacity at any period).
    """
    spare = 1.0 - env.utilization
    if spare <= 0.0:
        return float("inf")
    return (task.wcet + env.total_wcet) / spare
