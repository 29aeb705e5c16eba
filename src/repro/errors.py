"""Exception hierarchy for the :mod:`repro` package.

Every error raised by this library derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still being able to distinguish the individual failure modes.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` package."""


class ValidationError(ReproError, ValueError):
    """A model object was constructed with invalid parameters.

    Also a :class:`ValueError` so that generic input-validation handlers
    keep working.
    """


class ConfigError(ReproError, ValueError):
    """A by-name lookup or configuration value did not resolve.

    Raised when a user-supplied name (heuristic, ordering, admission
    test, allocator, workload, executor, period solver, search …)
    matches nothing registered; the message always lists the known
    names.  Also a :class:`ValueError` so generic input-validation
    handlers keep working.  (An unknown experiment is a
    :class:`ValidationError`.)
    """


class PartitioningError(ReproError):
    """The real-time task set could not be partitioned onto the cores."""

    def __init__(self, message: str, unplaced_task: object = None) -> None:
        super().__init__(message)
        #: The first task that could not be placed, if known.
        self.unplaced_task = unplaced_task


class CacheError(ReproError, OSError):
    """The on-disk result store cannot be created, read, or written.

    Raised fail-fast when a cache/store root is unusable — before any
    sweep point has burned compute that could not be persisted.  Also an
    :class:`OSError` so pre-existing handlers for filesystem failures
    keep working.
    """


class SweepCancelled(ReproError):
    """A sweep was cooperatively cancelled between point batches.

    Raised by :class:`~repro.experiments.parallel.SweepEngine` when its
    ``should_cancel`` hook reports a pending cancellation; already
    computed batches stay cached, so a resubmitted job resumes from
    where the cancel landed.
    """


class ExecutorError(ReproError):
    """An execution backend could not complete a sweep point.

    Raised by :mod:`repro.executors` backends when a point exhausts
    its bounded retries (worker deaths, task timeouts) or a worker
    reports that the point runner itself raised.  Deterministic
    points make retries safe, so reaching this error means the
    failure is persistent, not transient.
    """


class ExecutorTaskError(ExecutorError):
    """A sweep point's runner raised inside a worker.

    Carries the worker-reported exception type and message — the
    failure is the *task's*, not the transport's, so executors
    surface it immediately instead of burning retries on a
    deterministic error.
    """

    def __init__(self, message: str, error_type: str = "") -> None:
        super().__init__(message)
        #: Exception class name reported by the worker (e.g.
        #: ``"ValidationError"``).
        self.error_type = error_type


class UnknownJobError(ReproError, KeyError):
    """A job id matched nothing the :class:`~repro.jobs.JobRunner`
    knows about.

    Also a :class:`KeyError` so generic by-id lookup handlers keep
    working.
    """

    def __init__(self, job_id: str) -> None:
        super().__init__(f"unknown job {job_id!r}")
        self.job_id = job_id

    def __str__(self) -> str:  # KeyError quotes its args; keep prose
        return self.args[0]


class InfeasibleError(ReproError):
    """An optimisation problem has an empty feasible region."""


class SolverError(ReproError):
    """A numerical solver failed to converge or reported an internal error."""


class SimulationError(ReproError):
    """The discrete-event simulator reached an inconsistent state."""


class AllocationError(ReproError):
    """A security-task allocator could not produce a valid allocation."""
