"""Parallel, cached, resumable sweep engine for the experiments.

The paper's evaluation is a Monte-Carlo sweep: thousands of synthetic
task sets spread over a grid of utilisation points (Figs. 2–3), and
the fixed UAV case study on a handful of platform sizes (Fig. 1,
Table I; Fig. 1 is a detection-latency grid with one point per
platform).  The seed code ran every trial serially; this module makes
the *utilisation point* the unit of work and fans points out over a
:class:`concurrent.futures.ProcessPoolExecutor`.

Determinism is the design anchor:

* every point ``i`` of a sweep draws its randomness from the
  :class:`numpy.random.SeedSequence` child ``spawn(i)`` of the sweep
  seed — stream ``i`` of
  :func:`repro.experiments.runner.spawn_streams` — so serial and
  parallel runs produce **identical** task-set sequences;
* every point's result is a plain-JSON payload, which makes results
  byte-comparable across worker counts and cacheable on disk
  (:class:`repro.experiments.store.ResultStore`): re-runs and extended
  sweeps only compute the points that are missing.

Experiment kinds are *registered point runners* — top-level functions
(picklable by name) taking ``(point, params, rng)`` and returning a
JSON payload.  The figure drivers build :class:`SweepSpec` objects and
feed them through a shared :class:`SweepEngine`.

The engine owns no storage: a serial engine runs points inline, a
parallel one hands them to an execution backend from
:mod:`repro.executors` (by default the ``pool`` backend, whose fork
pool spawns lazily once and serves every sweep of its owner: a CLI
invocation or a job service), and cached points are read/written in
batches through the sharded
:class:`~repro.experiments.store.ResultStore`.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Mapping, Sequence

import numpy as np

from repro.errors import SweepCancelled, ValidationError
from repro.experiments.store import CACHE_FORMAT, ResultStore
from repro.model.platform import Platform
from repro.taskgen.synthetic import SyntheticConfig

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.executors.api import Executor

__all__ = [
    "SweepSpec",
    "SweepStats",
    "SweepResult",
    "SweepEngine",
    "register_point_runner",
    "get_point_runner",
    "execute_point",
    "synthetic_config_to_dict",
    "synthetic_config_from_dict",
]


# -- serialisation helpers ---------------------------------------------------


def synthetic_config_to_dict(config: SyntheticConfig) -> dict[str, Any]:
    """JSON form of a :class:`SyntheticConfig` (tuples become lists)."""
    return dataclasses.asdict(config)


def synthetic_config_from_dict(data: Mapping[str, Any]) -> SyntheticConfig:
    """Inverse of :func:`synthetic_config_to_dict`."""
    kwargs: dict[str, Any] = dict(data)
    for key, value in kwargs.items():
        if isinstance(value, list):
            kwargs[key] = tuple(value)
    return SyntheticConfig(**kwargs)


def _config_from_params(params: Mapping[str, Any]) -> SyntheticConfig | None:
    raw = params.get("config")
    return synthetic_config_from_dict(raw) if raw is not None else None


# -- sweep specification -----------------------------------------------------


@dataclass(frozen=True)
class SweepSpec:
    """A deterministic, JSON-serialisable description of one sweep.

    Attributes
    ----------
    kind:
        Registered point-runner name (e.g. ``"scenario"``).
    seed:
        Sweep seed; point ``i`` uses SeedSequence child ``spawn(i)``.
    points:
        Per-point parameter dicts (JSON values only), e.g.
        ``{"utilization": 1.3}``.  Appending points to a sweep keeps
        the earlier points' streams — and cache entries — valid.
    params:
        Parameters shared by every point (JSON values only).
    """

    kind: str
    seed: int
    points: tuple[Mapping[str, Any], ...]
    params: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.points:
            raise ValidationError("a sweep needs at least one point")

    def to_dict(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "seed": self.seed,
            "points": [dict(p) for p in self.points],
            "params": dict(self.params),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SweepSpec":
        return cls(
            kind=data["kind"],
            seed=int(data["seed"]),
            points=tuple(dict(p) for p in data["points"]),
            params=dict(data.get("params", {})),
        )

    def key_payload(self, index: int) -> dict[str, Any]:
        """Everything that determines point ``index``'s result.

        Deliberately excludes the *number* of points: SeedSequence
        children depend only on the child index, so extending a sweep
        with more points leaves existing entries reusable.
        """
        return {
            "format": CACHE_FORMAT,
            "kind": self.kind,
            "seed": self.seed,
            "index": index,
            "point": dict(self.points[index]),
            "params": dict(self.params),
        }

    def rng_for(self, index: int) -> np.random.Generator:
        """The deterministic stream of point ``index`` (serial ≡ parallel)."""
        children = np.random.SeedSequence(self.seed).spawn(index + 1)
        return np.random.default_rng(children[index])


# -- point-runner registry ---------------------------------------------------

#: ``runner(point, params, rng) -> JSON payload``.
PointRunner = Callable[
    [Mapping[str, Any], Mapping[str, Any], np.random.Generator],
    Mapping[str, Any],
]

_POINT_RUNNERS: dict[str, PointRunner] = {}


def register_point_runner(
    kind: str,
) -> Callable[[PointRunner], PointRunner]:
    """Register a point runner under ``kind`` (decorator).

    Runners must be top-level functions: worker processes look them up
    by kind, so they need to be importable, and their payloads must be
    plain JSON so results cache and compare byte-identically.
    """

    def decorate(fn: PointRunner) -> PointRunner:
        if kind in _POINT_RUNNERS:
            raise ValidationError(f"point runner {kind!r} already registered")
        _POINT_RUNNERS[kind] = fn
        return fn

    return decorate


#: Modules whose import registers further built-in point runners.  A
#: worker process only imports *this* module (the pool pickles
#: ``_execute_point_job`` by reference), so runners living elsewhere —
#: e.g. the ``scenario`` runner — are resolved by importing their home
#: module on the first miss.
_RUNNER_MODULES = (
    "repro.experiments.scenario",
    "repro.experiments.detection",
)


def get_point_runner(kind: str) -> PointRunner:
    if kind not in _POINT_RUNNERS:
        from importlib import import_module

        for module in _RUNNER_MODULES:
            import_module(module)
    try:
        return _POINT_RUNNERS[kind]
    except KeyError:
        raise ValidationError(
            f"unknown sweep kind {kind!r}; expected one of "
            f"{sorted(_POINT_RUNNERS)}"
        ) from None


def execute_point(spec: SweepSpec, index: int) -> dict[str, Any]:
    """Compute point ``index`` of ``spec`` (in-process)."""
    runner = get_point_runner(spec.kind)
    payload = runner(dict(spec.points[index]), dict(spec.params),
                     spec.rng_for(index))
    return dict(payload)


def _execute_point_job(spec_dict: dict[str, Any], index: int) -> dict[str, Any]:
    """Worker-side entry: rebuild the spec from JSON and run one point."""
    return execute_point(SweepSpec.from_dict(spec_dict), index)


# -- built-in point runners --------------------------------------------------


@register_point_runner("calibration")
def run_calibration_point(
    point: Mapping[str, Any],
    params: Mapping[str, Any],
    rng: np.random.Generator,
) -> dict[str, Any]:
    """A near-zero-cost point: a single draw from the point's stream.

    Exists so the engine's own dispatch costs — pool fan-out, cache
    round-trips — can be measured and regression-gated with the actual
    mathematics factored out (see ``benchmarks/test_bench_parallel.py``
    and ``tools/check_bench.py``).  Deterministic like any other
    runner: the draw comes from the point's SeedSequence stream.
    """
    return {"point": dict(point), "value": float(rng.random())}


@register_point_runner("fig3-gap")
def run_fig3_point(
    point: Mapping[str, Any],
    params: Mapping[str, Any],
    rng: np.random.Generator,
) -> dict[str, Any]:
    """HYDRA-vs-OPT tightness gaps at one utilisation (Fig. 3)."""
    from repro.allocators import get_allocator
    from repro.experiments.runner import build_hydra_system
    from repro.metrics.improvement import tightness_gap
    from repro.taskgen.synthetic import generate_workload

    platform = Platform(int(params["cores"]))
    config = _config_from_params(params)
    hydra = get_allocator("hydra")
    search = params.get("search", "branch-bound")
    optimal = get_allocator(
        "optimal" if search == "exhaustive" else f"optimal[{search}]"
    )
    gaps: list[float] = []
    hydra_failures = 0
    for _ in range(int(params["tasksets_per_point"])):
        workload = generate_workload(
            platform, float(point["utilization"]), rng, config
        )
        system = build_hydra_system(workload)
        if system is None:
            continue  # unschedulable for both: nothing to compare
        opt_alloc = optimal.allocate(system)
        if not opt_alloc.schedulable:
            continue
        eta_opt = opt_alloc.cumulative_tightness()
        hydra_alloc = hydra.allocate(system)
        if not hydra_alloc.schedulable:
            gaps.append(100.0)
            hydra_failures += 1
            continue
        gaps.append(tightness_gap(eta_opt, hydra_alloc.cumulative_tightness()))
    return {"gaps": gaps, "hydra_failures": hydra_failures}


@register_point_runner("table1")
def run_table1_point(
    point: Mapping[str, Any],
    params: Mapping[str, Any],
    rng: np.random.Generator,
) -> dict[str, Any]:
    """The extended Table I rows for one UAV platform size."""
    from repro.experiments.fig1 import build_uav_systems
    from repro.taskgen.security_apps import TABLE1_SPECS

    _, hydra_alloc, _, single_alloc = build_uav_systems(int(point["cores"]))
    rows = []
    for spec in TABLE1_SPECS:
        hydra_assignment = hydra_alloc.assignment_for(spec.name)
        single_assignment = single_alloc.assignment_for(spec.name)
        rows.append(
            {
                "name": spec.name,
                "application": spec.application,
                "function": spec.function,
                "surface": spec.surface,
                "wcet": spec.wcet,
                "period_des": spec.period_des,
                "period_max": spec.period_max,
                "hydra_core": hydra_assignment.core,
                "hydra_period": hydra_assignment.period,
                "single_period": single_assignment.period,
            }
        )
    return {"rows": rows}


# -- the engine --------------------------------------------------------------


@dataclass
class SweepStats:
    """Where a sweep's points came from."""

    computed_points: int = 0
    cached_points: int = 0


@dataclass(frozen=True)
class SweepResult:
    """Ordered per-point payloads of one sweep."""

    spec: SweepSpec
    payloads: tuple[Mapping[str, Any], ...]
    stats: SweepStats


class SweepEngine:
    """Runs :class:`SweepSpec` sweeps — serially or through an execution
    backend, optionally backed by an on-disk :class:`ResultStore`.

    A serial engine computes points inline (it never imports
    :mod:`repro.executors`); a ``workers > 1`` engine without an
    explicit executor resolves the registered ``pool`` backend once
    and owns it, so every sweep it runs fans out over the *same*
    processes, which live as long as the engine.  To share one pool
    across engines, or to end it at a point of your choosing, build
    the executor yourself and pass it in:
    ``with PoolExecutor(8) as executor: SweepEngine(executor=executor)``.

    Parameters
    ----------
    workers:
        ``None``/``0``/``1`` → serial in-process execution; ``n > 1`` →
        fan points over ``n`` pooled workers.  Results are identical
        either way (per-point SeedSequence streams).
    cache:
        A :class:`ResultStore`, a directory path, or ``None`` to
        disable caching.  Lookups and writes are batched per sweep
        (``get_many``/``put_many``).
    on_point_computed:
        Optional hook called (in the parent process) with the point
        index after each point is *computed* — cache hits do not fire
        it.  The determinism tests use it to prove warm runs recompute
        nothing.
    should_cancel:
        Optional cooperative-cancellation hook (the
        :class:`~repro.jobs.JobRunner` sets it).  When given, missing
        points are computed — and cached — in pool-sized batches with
        the hook checked between batches; a pending cancellation
        raises :class:`~repro.errors.SweepCancelled` mid-sweep, and
        the batches already computed stay cached so a resubmission
        resumes instead of restarting.  ``None`` (the default) keeps
        the single-shot compute path.
    executor:
        An execution backend — an :class:`~repro.executors.Executor`
        instance or a registry name (``"serial"``, ``"pool"``,
        ``"subprocess-workers"``, any plugin) — that computes every
        missing point.  ``None`` (the default) means inline for
        ``workers <= 1`` and the ``pool`` backend otherwise.  Backends
        are payload-identical by contract, so the choice never changes
        a result byte (and is therefore not part of any cache key).
        The engine never closes an executor it was handed — the
        creator owns its lifecycle (a name is resolved once, and the
        instance ends with the engine, or at interpreter exit if
        something else still holds it).
    """

    def __init__(
        self,
        workers: int | None = None,
        cache: ResultStore | str | None = None,
        on_point_computed: Callable[[int], None] | None = None,
        should_cancel: Callable[[], bool] | None = None,
        executor: "Executor | str | None" = None,
    ) -> None:
        if workers is not None and workers < 0:
            raise ValidationError(f"workers must be >= 0, got {workers}")
        if executor is None and workers is not None and workers > 1:
            executor = "pool"
        if isinstance(executor, str):
            # Imported only here: a serial engine stays clear of the
            # executors package, whose import would land in every run.
            from repro.executors import get_executor

            executor = get_executor(executor, workers=workers)
        if workers is None and executor is not None:
            self.workers = max(1, executor.workers)
        else:
            self.workers = max(1, int(workers or 1))
        self.executor = executor
        if cache is not None and not isinstance(cache, ResultStore):
            cache = ResultStore(cache)
        self.cache = cache
        self.on_point_computed = on_point_computed
        self.should_cancel = should_cancel

    def run(self, spec: SweepSpec) -> SweepResult:
        """Execute ``spec``, returning per-point payloads in order."""
        # Consult the cancel hook before doing anything — including
        # the cache probe: a job cancelled while queued must report
        # cancelled even when a warm cache could have served every
        # point without computing.
        if self.should_cancel is not None and self.should_cancel():
            raise SweepCancelled(
                f"sweep {spec.kind!r} cancelled before it started"
            )
        stats = SweepStats()
        payloads: list[Mapping[str, Any] | None] = [None] * len(spec.points)

        missing: list[int] = []
        key_payloads: list[dict[str, Any]] = []
        if self.cache is not None:
            key_payloads = [
                spec.key_payload(index) for index in range(len(spec.points))
            ]
            for index, cached in enumerate(
                self.cache.get_many(spec.kind, key_payloads)
            ):
                if cached is not None:
                    payloads[index] = cached
                    stats.cached_points += 1
                else:
                    missing.append(index)
        else:
            missing = list(range(len(spec.points)))

        if missing:
            if self.should_cancel is None:
                batches: Sequence[Sequence[int]] = (missing,)
            else:
                # Cancellable runs compute in pool-sized batches so the
                # hook is consulted mid-sweep; each batch is cached as
                # it lands, making a cancelled job resumable.
                chunk = max(1, self.workers)
                batches = [
                    missing[start:start + chunk]
                    for start in range(0, len(missing), chunk)
                ]
            for batch in batches:
                if self.should_cancel is not None and self.should_cancel():
                    raise SweepCancelled(
                        f"sweep {spec.kind!r} cancelled after "
                        f"{stats.computed_points} of {len(missing)} "
                        f"pending points"
                    )
                computed = self._compute(spec, batch)
                if self.cache is not None:
                    self.cache.put_many(
                        spec.kind,
                        [(key_payloads[i], p) for i, p in computed],
                    )
                for index, payload in computed:
                    payloads[index] = payload
                    stats.computed_points += 1
                    if self.on_point_computed is not None:
                        self.on_point_computed(index)

        return SweepResult(
            spec=spec,
            payloads=tuple(payloads),  # type: ignore[arg-type]
            stats=stats,
        )

    def _compute(
        self, spec: SweepSpec, indices: Sequence[int]
    ) -> list[tuple[int, dict[str, Any]]]:
        if self.executor is None:
            return [(i, execute_point(spec, i)) for i in indices]
        return self.executor.run_points(spec, list(indices))
