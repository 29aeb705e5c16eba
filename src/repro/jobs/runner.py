"""Transport-agnostic job execution over the sweep engine.

The ROADMAP's service direction needs one execution path that the CLI,
the test suite, and an HTTP server all share — otherwise "submit a
sweep to the server" and "run the sweep locally" drift apart.  This
module provides that path:

* :class:`JobRequest` — a plain-JSON description of *what* to run: a
  registered experiment name (``fig2``, ``table1`` …), a scenario
  sweep document (the exact TOML-grid schema of ``repro-hydra sweep
  --config``, as a dict), or an ablation study document (the schema
  of ``repro-hydra ablate --config`` — see :mod:`repro.ablate`), plus
  scale/seed and the CLI's ``--allocator``/``--workload`` overrides.
* :class:`Job` — one submission's lifecycle record: ``queued →
  running → done | failed | cancelled``, per-point progress counters
  (total/computed/cached) and structured error capture.
* :class:`JobRunner` — owns the shared execution stack (one execution
  backend per name, the ``pool`` fork pool included, and one sharded
  :class:`~repro.experiments.store.ResultStore`) and executes jobs
  either asynchronously (:meth:`~JobRunner.submit`, a single
  background worker thread drains the queue — the *backend* provides
  the parallelism) or synchronously (:meth:`~JobRunner.run_experiment`,
  what the CLI uses).  :meth:`~JobRunner.close` ends the backends, so
  no worker outlives the runner.

**Idempotent job ids.**  A job's id is derived from the experiment's
``spec_hash`` — the fingerprint of its spec plus every
:class:`~repro.experiments.parallel.SweepSpec` it will run, which in
turn determine every per-point cache key.  Submitting the same sweep
spec twice therefore returns the *same* job id; and because results
are content-addressed in the store, a resubmission against a warm
cache completes without re-running any point (the engine serves every
point from ``get_many``).  This is exactly the paper's exploration
pattern — repeated grid sweeps over Figs. 1–3 / Table I territory —
turned into instant hits.

**Cancellation** is cooperative: :meth:`JobRunner.cancel` sets a flag
the engine checks between point batches
(:class:`~repro.errors.SweepCancelled`).  Batches computed before the
cancel stay cached, so a cancelled job resumes where it stopped when
resubmitted.

**Result fetches neither read nor write the store.**
:meth:`JobRunner.result` returns the result the job's own execution
aggregated and keeps: the same bytes a direct run or a cache-hit
resubmission gives, at the same cost however many entries the store
holds.
"""

from __future__ import annotations

import threading
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from queue import SimpleQueue
from typing import TYPE_CHECKING, Any, Callable, Mapping

from repro.errors import (
    ConfigError,
    SweepCancelled,
    UnknownJobError,
    ValidationError,
)
from repro.experiments.api import Experiment, ExperimentResult, RawRun
from repro.experiments.config import ExperimentScale, get_scale
from repro.experiments.parallel import SweepEngine
from repro.experiments.store import ResultStore, cache_key

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.executors.api import Executor

__all__ = [
    "Job",
    "JobRequest",
    "JobRunner",
    "JobState",
    "derive_job_id",
]

#: Bump when the job-id derivation changes incompatibly (ids are
#: content-addressed, so this is the only version knob they need).
#: Format 2 hashes the whole scale.
JOB_ID_FORMAT = 2


class JobState:
    """The job lifecycle: ``queued → running → done|failed|cancelled``."""

    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"

    #: States a job can never leave.
    TERMINAL = frozenset({DONE, FAILED, CANCELLED})


def derive_job_id(experiment: Experiment, scale: ExperimentScale) -> str:
    """The idempotent job id of running ``experiment`` at ``scale``.

    Content-addressed over the experiment's ``spec_hash`` — which
    fingerprints the spec and every sweep (and therefore every
    per-point cache key) — and over every field of the scale, so
    identical submissions collide on purpose while anything that would
    change a single result byte (seed, grid, scale, schema version)
    yields a fresh id.  The scale is hashed whole because experiments
    that compute inline (the search and extension ablations) run no
    sweeps: their ``spec_hash`` never sees the seed.  Execution knobs
    that never affect results (worker count) deliberately do not
    participate.
    """
    return cache_key(
        {
            "job_format": JOB_ID_FORMAT,
            "scale": asdict(scale),
            "spec_hash": experiment.spec_hash(scale),
        }
    )


@dataclass(frozen=True)
class JobRequest:
    """A plain-JSON description of one job submission.

    Exactly one of ``experiment`` (a registered experiment name),
    ``spec`` (a scenario sweep document — the TOML-grid schema of
    ``repro-hydra sweep --config``, as a dict) or ``ablation`` (an
    ablation study document — the schema of ``repro-hydra ablate
    --config``, as a dict) must be given.
    ``allocators``/``workloads`` mirror the CLI's repeatable
    ``--allocator``/``--workload`` grid overrides and only apply to
    ``spec`` submissions.  ``executor`` names the execution backend
    (``python -m repro executors`` lists them) — an execution knob
    like the worker count, so it participates in neither the job id
    nor any cache key.
    """

    experiment: str | None = None
    spec: Mapping[str, Any] | None = None
    ablation: Mapping[str, Any] | None = None
    scale: str | None = None
    seed: int | None = None
    allocators: tuple[str, ...] | None = None
    workloads: tuple[str, ...] | None = None
    executor: str | None = None

    def __post_init__(self) -> None:
        given = sum(
            source is not None
            for source in (self.experiment, self.spec, self.ablation)
        )
        if given != 1:
            raise ValidationError(
                "a job request needs exactly one of 'experiment' (a "
                "registered experiment name), 'spec' (a sweep "
                "document) or 'ablation' (an ablation study document)"
            )
        if self.spec is None and (self.allocators or self.workloads):
            raise ValidationError(
                "allocator/workload overrides only apply to 'spec' "
                "(scenario sweep) submissions"
            )

    @classmethod
    def from_dict(cls, body: Mapping[str, Any]) -> "JobRequest":
        """Parse a submission body (what ``POST /jobs`` accepts).

        Two shapes are accepted: an envelope —
        ``{"spec": {...}, "scale": "smoke", "seed": 7,
        "allocator": [...], "workload": [...]}``,
        ``{"ablation": {...}, ...}`` or ``{"experiment": "fig2", ...}``
        — and, for convenience, a bare document: anything with a
        top-level ``baseline`` table is an ablation study, anything
        with a top-level ``grid`` table a sweep.  (The ablation check
        runs first — an ablation doc may carry its own ``[sweep]``
        overrides table.)  Every rejection is a typed error naming the
        offending key.
        """
        if not isinstance(body, Mapping):
            raise ValidationError(
                f"a job submission must be a JSON object, got "
                f"{type(body).__name__}"
            )
        if "baseline" in body:
            # A bare ablation document; ablation parsing validates it.
            return cls(ablation=dict(body))
        if "grid" in body or "sweep" in body:
            # A bare TOML-grid document; scenario parsing validates it.
            return cls(spec=dict(body))
        known = {
            "experiment", "spec", "ablation", "scale", "seed",
            "allocator", "workload", "executor",
        }
        unknown = set(body) - known
        if unknown:
            raise ValidationError(
                f"unknown job request key(s) {sorted(unknown)}; "
                f"expected a subset of {sorted(known)}"
            )

        def names(key: str) -> tuple[str, ...] | None:
            values = body.get(key)
            if values is None:
                return None
            if not (
                isinstance(values, (list, tuple))
                and values
                and all(isinstance(v, str) for v in values)
            ):
                raise ValidationError(
                    f"job request {key!r} must be a non-empty list of "
                    f"names"
                )
            return tuple(values)

        seed = body.get("seed")
        if seed is not None and (
            not isinstance(seed, int) or isinstance(seed, bool) or seed < 0
        ):
            raise ValidationError(
                "job request 'seed' must be a non-negative integer"
            )
        scale = body.get("scale")
        if scale is not None and not isinstance(scale, str):
            raise ValidationError("job request 'scale' must be a string")
        experiment = body.get("experiment")
        spec = body.get("spec")
        if spec is not None and not isinstance(spec, Mapping):
            raise ValidationError(
                "job request 'spec' must be a sweep document (object)"
            )
        ablation = body.get("ablation")
        if ablation is not None and not isinstance(ablation, Mapping):
            raise ValidationError(
                "job request 'ablation' must be an ablation study "
                "document (object)"
            )
        executor = body.get("executor")
        if executor is not None and not isinstance(executor, str):
            raise ValidationError(
                "job request 'executor' must be an executor name "
                "(string)"
            )
        return cls(
            experiment=experiment,
            spec=dict(spec) if spec is not None else None,
            ablation=dict(ablation) if ablation is not None else None,
            scale=scale,
            seed=seed,
            allocators=names("allocator"),
            workloads=names("workload"),
            executor=executor,
        )

    def build(self) -> tuple[Experiment, ExperimentScale]:
        """Resolve the request into a runnable experiment + scale.

        All by-name lookups raise their typed errors here — at submit
        time, before anything is queued or computed.
        """
        if self.executor is not None:
            from repro.executors import get_executor_info

            get_executor_info(self.executor)  # typed error when unknown
        scale = get_scale(self.scale)
        if self.seed is not None:
            scale = scale.with_overrides(seed=self.seed)
        if self.experiment is not None:
            from repro.experiments.registry import get_experiment

            return get_experiment(self.experiment), scale
        if self.ablation is not None:
            from repro.ablate import AblationExperiment, parse_ablation

            return AblationExperiment(parse_ablation(self.ablation)), scale
        from repro.experiments.scenario import (
            build_scenario_experiment,
            parse_scenario,
        )

        config = parse_scenario(self.spec)
        if self.allocators:
            config = config.with_allocators(self.allocators)
        if self.workloads:
            config = config.with_workloads(self.workloads)
        return build_scenario_experiment(config), scale


class Job:
    """One submission's lifecycle record.

    Mutable by design — the runner's worker thread advances the state
    and counters while transports poll :meth:`to_dict`.  Counter
    updates are single writes from one thread, so readers only ever
    see a consistent (if momentarily stale) snapshot.
    """

    def __init__(
        self,
        job_id: str,
        experiment: Experiment,
        scale: ExperimentScale,
        request: JobRequest | None = None,
        executor: str | None = None,
    ) -> None:
        self.id = job_id
        self.request = request
        #: Requested execution backend (``None`` → the runner's
        #: default).  An execution knob, not part of the job id.
        self.executor = executor or (
            request.executor if request is not None else None
        )
        self.state = JobState.QUEUED
        self.total_points = 0
        self.computed_points = 0
        self.cached_points = 0
        #: ``{"type": <exception class name>, "message": <one line>}``
        #: for failed/cancelled jobs, ``None`` otherwise.
        self.error: dict[str, str] | None = None
        #: The original exception object behind a FAILED state, so a
        #: synchronous caller that rode someone else's execution can
        #: still re-raise the real thing.
        self._exception: BaseException | None = None
        self.result: ExperimentResult | None = None
        self.created = time.time()
        self.started: float | None = None
        self.finished: float | None = None
        self._experiment = experiment
        self._scale = scale
        self._cancel = threading.Event()
        self._terminal = threading.Event()

    @property
    def experiment_name(self) -> str:
        return self._experiment.name

    @property
    def scale_name(self) -> str:
        return self._scale.name

    def wait(self, timeout: float | None = None) -> bool:
        """Block until the job reaches a terminal state (or ``timeout``
        seconds pass); returns whether it did."""
        return self._terminal.wait(timeout)

    def _finish(self, state: str) -> None:
        self.finished = time.time()
        self.state = state
        self._terminal.set()

    def to_dict(self) -> dict[str, Any]:
        """The job's status document (what ``GET /jobs/{id}`` serves);
        a fresh one per call, so changing it never changes the job."""
        return {
            "id": self.id,
            "state": self.state,
            "experiment": self.experiment_name,
            "scale": self.scale_name,
            "progress": {
                "total_points": self.total_points,
                "computed_points": self.computed_points,
                "cached_points": self.cached_points,
            },
            "error": dict(self.error) if self.error is not None else None,
            "created": self.created,
            "started": self.started,
            "finished": self.finished,
        }


class JobRunner:
    """Transport-agnostic executor of sweep jobs.

    Parameters
    ----------
    cache_dir:
        Root of the sharded :class:`ResultStore` job results are
        content-addressed into.  ``None`` disables persistence (jobs
        still run; idempotent resubmission then only helps within this
        runner's lifetime).
    workers:
        Worker-process fan-out per job, with the engine's usual
        semantics (``None``/``1`` → serial).  Never part of the job
        id — worker count cannot affect result bytes.
    on_progress:
        Optional hook called (from the executing thread) with the
        :class:`Job` after every progress update; transports can use
        it for logging or streaming.
    executor:
        Default execution backend — a registry name or an
        :class:`~repro.executors.Executor` instance — for jobs that
        do not name one themselves.  ``None`` means inline when
        serial and ``pool`` otherwise.  Name-resolved backends are
        instantiated once per runner, reused across jobs (so one fork
        pool serves every job), and closed by :meth:`close`; an
        injected instance stays the caller's to close.
    store_writer:
        ``writer_id`` for the runner's store: pass one whenever
        another process may write the same ``cache_dir`` concurrently
        (the job service does — ``serve<pid>``) so each process
        appends to its own segment.  ``repro-hydra cache gc`` merges
        segments back into the primary log.
    """

    def __init__(
        self,
        cache_dir: str | Path | None = None,
        workers: int | None = None,
        on_progress: Callable[[Job], None] | None = None,
        executor: "str | Executor | None" = None,
        store_writer: str | None = None,
    ) -> None:
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        self.workers = workers
        self.on_progress = on_progress
        self.executor = executor
        self.store_writer = store_writer
        # Fails fast (typed CacheError) on an unusable root, before
        # any job is accepted.
        self._store = (
            ResultStore(self.cache_dir, writer_id=store_writer)
            if self.cache_dir is not None
            else None
        )
        self._jobs: dict[str, Job] = {}
        self._queue: SimpleQueue[str | None] = SimpleQueue()
        self._lock = threading.RLock()
        self._thread: threading.Thread | None = None
        #: Backends this runner instantiated by name — shared across
        #: jobs (a subprocess backend keeps its workers warm between
        #: submissions) and closed with the runner.
        self._executors: dict[str, "Executor"] = {}

    # -- registry --------------------------------------------------------

    def jobs(self) -> list[Job]:
        """Every known job, in submission order."""
        with self._lock:
            return list(self._jobs.values())

    def get(self, job_id: str) -> Job:
        """The job with ``job_id`` (typed error when unknown)."""
        with self._lock:
            try:
                return self._jobs[job_id]
            except KeyError:
                raise UnknownJobError(job_id) from None

    # -- submission ------------------------------------------------------

    def submit(self, request: JobRequest) -> Job:
        """Enqueue ``request`` for background execution (idempotent).

        Returns immediately.  A duplicate submission — same derived
        job id — returns the existing queued/running/done job
        untouched; resubmitting a *failed or cancelled* job requeues a
        fresh attempt under the same id (partial results are already
        cached, so it resumes rather than restarts).
        """
        experiment, scale = request.build()
        job_id = derive_job_id(experiment, scale)
        with self._lock:
            existing = self._jobs.get(job_id)
            if (
                existing is not None
                and existing.state not in (JobState.FAILED,
                                           JobState.CANCELLED)
            ):
                return existing
            job = Job(job_id, experiment, scale, request)
            self._jobs[job_id] = job
            self._ensure_thread()
        self._queue.put(job_id)
        return job

    def run(self, request: JobRequest) -> Job:
        """Execute ``request`` synchronously on the calling thread.

        Same idempotency as :meth:`submit`; library/unattended errors
        re-raise (after being captured on the job) so callers like the
        CLI keep their typed error handling.
        """
        experiment, scale = request.build()
        return self.run_experiment(experiment, scale,
                                   executor=request.executor)

    def run_experiment(
        self,
        experiment: Experiment,
        scale: ExperimentScale,
        executor: str | None = None,
    ) -> Job:
        """Synchronous execution path for an already-built experiment
        (what the CLI uses for every subcommand, ``sweep`` included)."""
        job_id = derive_job_id(experiment, scale)
        while True:
            with self._lock:
                existing = self._jobs.get(job_id)
                if existing is None or existing.state in (
                    JobState.FAILED, JobState.CANCELLED,
                ):
                    job = Job(job_id, experiment, scale,
                              executor=executor)
                    self._jobs[job_id] = job
                    break
                if existing.state == JobState.DONE:
                    return existing
            # A background duplicate is queued or running: ride it.
            # The wait must happen *outside* the lock — the drain
            # worker needs the lock to claim a queued job, so waiting
            # while holding it deadlocks (and would freeze every other
            # runner operation for the length of the sweep).
            existing.wait()
            if existing.state == JobState.DONE:
                return existing
            # It failed or was cancelled while we waited; loop to
            # re-check the registry and retry under the same id
            # (partial results are already cached, so it resumes).
        if not self._execute(job, reraise=True):
            # A racing claimer — the drain worker on a stale queue
            # entry, or a cancel — got the fresh job first; ride its
            # outcome instead, preserving re-raise semantics.
            job.wait()
            if job.state == JobState.FAILED and job._exception is not None:
                raise job._exception
        return job

    def cancel(self, job_id: str) -> Job:
        """Request cooperative cancellation of ``job_id``.

        A queued job is cancelled immediately; a running one stops at
        the next point-batch boundary (its computed batches stay
        cached).  Cancelling a terminal job is a no-op.
        """
        job = self.get(job_id)
        with self._lock:
            if job.state == JobState.QUEUED:
                job._cancel.set()
                job.error = {
                    "type": "SweepCancelled",
                    "message": "cancelled before execution started",
                }
                job._finish(JobState.CANCELLED)
            elif job.state == JobState.RUNNING:
                job._cancel.set()
        return job

    # -- results ---------------------------------------------------------

    def result(self, job_id: str) -> ExperimentResult:
        """The typed :class:`ExperimentResult` of a finished job.

        This is the result the job's execution aggregated and kept, so
        a fetch reads and writes nothing: neither the store nor any
        point is touched again, and an experiment that computes inline
        is not recomputed.
        """
        job = self.get(job_id)
        if job.state != JobState.DONE:
            raise ConfigError(
                f"job {job_id!r} is {job.state}, not done — no result "
                f"to fetch"
            )
        assert job.result is not None  # DONE implies a result
        return job.result

    # -- execution -------------------------------------------------------

    def _ensure_thread(self) -> None:
        if self._thread is None or not self._thread.is_alive():
            self._thread = threading.Thread(
                target=self._drain, name="repro-job-runner", daemon=True
            )
            self._thread.start()

    def _drain(self) -> None:
        while True:
            job_id = self._queue.get()
            if job_id is None:
                return
            with self._lock:
                job = self._jobs.get(job_id)
            # Skip ids that were cancelled while queued or superseded
            # (a cheap pre-check; :meth:`_execute` re-checks the state
            # under the lock before claiming, so a cancel that races
            # past this line is still honoured).
            if job is None or job.state != JobState.QUEUED:
                continue
            self._execute(job)

    def _notify(self, job: Job) -> None:
        if self.on_progress is not None:
            self.on_progress(job)

    def _execute(self, job: Job, reraise: bool = False) -> bool:
        """Run ``job`` to a terminal state; returns whether this call
        claimed the execution.  The ``queued → running`` transition is
        atomic under the runner lock, so a cancel that landed while
        the job sat in the queue stays cancelled and two threads can
        never both execute the same job."""
        with self._lock:
            if job.state != JobState.QUEUED:
                return False
            job.started = time.time()
            job.state = JobState.RUNNING
        try:
            executor = self._resolve_executor(job.executor)
        except Exception as exc:
            job._exception = exc
            job.error = {
                "type": type(exc).__name__,
                "message": " ".join(str(exc).split()),
            }
            job._finish(JobState.FAILED)
            self._notify(job)
            if reraise:
                raise
            return True
        engine = SweepEngine(
            workers=self.workers,
            cache=self._store,
            on_point_computed=lambda index: self._point_computed(job),
            should_cancel=job._cancel.is_set,
            executor=executor,
        )
        try:
            sweeps = tuple(job._experiment.sweeps(job._scale))
            job.total_points = sum(len(s.points) for s in sweeps)
            self._notify(job)
            results = []
            for spec in sweeps:
                result = engine.run(spec)
                job.cached_points += result.stats.cached_points
                self._notify(job)
                results.append(result)
            job.result = job._experiment.aggregate(
                RawRun(sweeps=tuple(results), scale=job._scale)
            )
            job.error = None  # a DONE job never carries an error
            job._finish(JobState.DONE)
        except SweepCancelled as exc:
            job.error = {"type": "SweepCancelled", "message": str(exc)}
            job._finish(JobState.CANCELLED)
        except KeyboardInterrupt:
            # The pool executor reaps its workers on ^C; record the
            # interruption as a cancellation and let the caller unwind.
            job.error = {
                "type": "KeyboardInterrupt",
                "message": "interrupted while running",
            }
            job._finish(JobState.CANCELLED)
            raise
        except Exception as exc:
            job._exception = exc
            job.error = {
                "type": type(exc).__name__,
                "message": " ".join(str(exc).split()),
            }
            job._finish(JobState.FAILED)
            if reraise:
                raise
        finally:
            self._notify(job)
        return True

    def _point_computed(self, job: Job) -> None:
        job.computed_points += 1
        self._notify(job)

    def _resolve_executor(self, spec: str | None) -> "Executor | None":
        """The backend instance for ``spec`` (job's choice, falling
        back to the runner default, then to ``pool`` when
        ``workers > 1``; ``None`` → inline).  Name-resolved backends
        are cached per runner, so one fork pool serves every job and a
        subprocess backend keeps its workers warm across jobs."""
        chosen: "str | Executor | None" = spec or self.executor
        if chosen is None and self.workers is not None and self.workers > 1:
            chosen = "pool"
        if chosen is None or not isinstance(chosen, str):
            return chosen
        with self._lock:
            if chosen not in self._executors:
                from repro.executors import get_executor

                self._executors[chosen] = get_executor(
                    chosen, workers=self.workers
                )
            return self._executors[chosen]

    # -- lifecycle -------------------------------------------------------

    def close(self) -> None:
        """Stop the background worker thread (idempotent).

        Jobs still queued stay ``queued``; the runner can be reused —
        the next :meth:`submit` restarts the thread.  Backends this
        runner instantiated by name — the ``pool`` fork pool of a
        ``workers > 1`` runner among them — are closed, so none of
        their workers outlives the runner (a reused runner simply
        re-instantiates them); an injected executor instance is left
        alone, its creator closes it.
        """
        thread = self._thread
        if thread is not None and thread.is_alive():
            self._queue.put(None)
            thread.join(timeout=5.0)
        self._thread = None
        with self._lock:
            executors = list(self._executors.values())
            self._executors.clear()
        for executor in executors:
            executor.close()

    def __enter__(self) -> "JobRunner":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
