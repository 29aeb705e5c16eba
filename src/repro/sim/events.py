"""Record types produced by the discrete-event scheduler simulator.

The simulator's observable output is a list of :class:`JobRecord` (one
per released job) plus, optionally, the fine-grained
:class:`ExecutionSlice` timeline used by trace tooling and tests.  A
:class:`JobTrack` is the column view of one task's finished jobs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

__all__ = ["JobRecord", "JobTrack", "ExecutionSlice", "DeadlineMiss"]


@dataclass(frozen=True, slots=True)
class JobRecord:
    """Lifecycle of one job (one release of one task).

    ``start`` and ``completion`` are ``None`` when the simulation ended
    before the job ran / finished.  ``core`` is the core the job
    *finished* on (for migrating jobs, the last core it ran on).
    """

    task: str
    release: float
    deadline: float
    start: float | None
    completion: float | None
    core: int | None


class JobTrack(NamedTuple):
    """The finished jobs of one task as columns: ``release[i]``,
    ``start[i]`` and ``completion[i]`` describe one job, in the order
    the jobs appear in ``SimResult.jobs``."""

    release: Sequence[float]
    start: Sequence[float | None]
    completion: Sequence[float]


@dataclass(frozen=True, slots=True)
class ExecutionSlice:
    """A maximal interval during which one job ran uninterrupted on one
    core."""

    task: str
    core: int
    start: float
    end: float


@dataclass(frozen=True, slots=True)
class DeadlineMiss:
    """A job that was still incomplete at its absolute deadline."""

    task: str
    release: float
    deadline: float
