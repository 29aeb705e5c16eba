"""Per-task views of a simulation's job records, for the tests."""

from __future__ import annotations

from repro.sim.engine import SimResult
from repro.sim.events import JobRecord


def jobs_of(result: SimResult, task: str) -> list[JobRecord]:
    """Every job record of ``task``, in release order."""
    return [job for job in result.jobs if job.task == task]


def finished_jobs_of(result: SimResult, task: str) -> list[JobRecord]:
    """The finished jobs of ``task``, in release order."""
    return [job for job in jobs_of(result, task) if job.completion is not None]
