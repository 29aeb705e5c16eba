"""The sweep service's request routing, independent of any transport.

:class:`JobServiceApp` maps ``(method, path, body)`` triples onto a
:class:`~repro.jobs.JobRunner` and returns ``(status, payload)``
pairs — plain data in, plain data out.  The HTTP layer
(:mod:`repro.server.http`) is a thin byte-shuffling shell around
:meth:`JobServiceApp.handle`, which means the entire service surface
is testable in-process with zero sockets, and a different transport
(unix socket, message queue) could reuse the same routing verbatim.

Routes
------
``GET /healthz``
    Liveness probe: ``{"status": "ok"}``.
``POST /jobs``
    Submit a sweep.  The body is a :class:`~repro.jobs.JobRequest`
    document (``{"spec": <sweep doc>, "scale": ...}`` or
    ``{"experiment": <name>, ...}``; a bare TOML-grid document also
    works).  Idempotent: a duplicate spec returns the same job id, and
    against a warm cache the job completes without recomputing —
    ``200`` with state ``done`` instead of ``202``.
``GET /jobs`` / ``GET /jobs/{id}``
    Job status documents (state, progress counters, error).
``GET /jobs/{id}/result``
    The finished job's typed
    :class:`~repro.experiments.api.ExperimentResult` as JSON: the
    result the job's execution kept, served with no store reads and
    no writes; ``409`` while the job is not done.
``DELETE /jobs/{id}``
    Cooperative cancel; returns the (possibly already terminal) status
    document.

Errors are uniform ``{"error": {"type": ..., "message": ...}}``
payloads: ``400`` for invalid submissions (``ValidationError`` /
``ConfigError`` and friends), ``404`` for unknown jobs or paths,
``405`` for unsupported methods, ``409`` for premature result fetches,
``500`` for cache faults.
"""

from __future__ import annotations

from typing import Any, Mapping

from repro.errors import (
    CacheError,
    ConfigError,
    ReproError,
    UnknownJobError,
    ValidationError,
)
from repro.jobs import JobRequest, JobRunner, JobState

__all__ = ["JobServiceApp"]


def _error(status: int, exc_type: str, message: str) -> tuple[int, dict]:
    return status, {"error": {"type": exc_type, "message": message}}


class JobServiceApp:
    """Route service requests onto a :class:`~repro.jobs.JobRunner`."""

    def __init__(self, runner: JobRunner) -> None:
        self.runner = runner

    def handle(
        self,
        method: str,
        path: str,
        body: Mapping[str, Any] | None = None,
    ) -> tuple[int, dict[str, Any]]:
        """Dispatch one request; returns ``(status, payload)``.

        Never raises for request-level problems — every typed library
        error is mapped to a status + uniform error payload, so
        transports only deal with transport failures.
        """
        try:
            return self._route(method.upper(), path.rstrip("/") or "/", body)
        except UnknownJobError as exc:
            return _error(404, "UnknownJobError", str(exc))
        except (ValidationError, ConfigError) as exc:
            return _error(400, type(exc).__name__, str(exc))
        except CacheError as exc:
            return _error(500, "CacheError", str(exc))
        except ReproError as exc:  # pragma: no cover - safety net
            return _error(500, type(exc).__name__, str(exc))

    # -- routing ---------------------------------------------------------

    def _route(
        self,
        method: str,
        path: str,
        body: Mapping[str, Any] | None,
    ) -> tuple[int, dict[str, Any]]:
        if path == "/healthz":
            if method != "GET":
                return _error(405, "MethodNotAllowed",
                              f"{method} not allowed on {path}")
            return 200, {"status": "ok"}
        if path == "/jobs":
            if method == "POST":
                return self._submit(body)
            if method == "GET":
                return 200, {
                    "jobs": [job.to_dict() for job in self.runner.jobs()]
                }
            return _error(405, "MethodNotAllowed",
                          f"{method} not allowed on {path}")
        parts = path.strip("/").split("/")
        if parts[0] == "jobs" and len(parts) == 2:
            return self._job(method, parts[1])
        if parts[0] == "jobs" and len(parts) == 3 and parts[2] == "result":
            return self._result(method, parts[1])
        return _error(404, "NotFound", f"no route for {path}")

    def _submit(
        self, body: Mapping[str, Any] | None
    ) -> tuple[int, dict[str, Any]]:
        if body is None:
            raise ValidationError(
                "POST /jobs needs a JSON body (a job request document)"
            )
        job = self.runner.submit(JobRequest.from_dict(body))
        # A warm-cache duplicate is already terminal: report 200, not
        # "accepted for processing".
        status = 200 if job.state in JobState.TERMINAL else 202
        return status, job.to_dict()

    def _job(self, method: str, job_id: str) -> tuple[int, dict[str, Any]]:
        if method == "GET":
            return 200, self.runner.get(job_id).to_dict()
        if method == "DELETE":
            return 200, self.runner.cancel(job_id).to_dict()
        return _error(405, "MethodNotAllowed",
                      f"{method} not allowed on /jobs/{{id}}")

    def _result(
        self, method: str, job_id: str
    ) -> tuple[int, dict[str, Any]]:
        if method != "GET":
            return _error(405, "MethodNotAllowed",
                          f"{method} not allowed on /jobs/{{id}}/result")
        job = self.runner.get(job_id)
        if job.state != JobState.DONE:
            return _error(
                409,
                "JobNotDone",
                f"job {job_id!r} is {job.state}; the result exists only "
                f"once it is done",
            )
        return 200, self.runner.result(job_id).to_dict()
