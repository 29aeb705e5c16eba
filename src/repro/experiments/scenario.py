"""User-defined scenario sweeps: TOML in, experiment out.

The paper evaluates one design point (best-fit partitioning,
utilisation ordering, exact-RTA admission).  The design *space* is a
grid — placement heuristic × task ordering × admission test × core
count — and exploring it should not require writing a driver.  This
module turns a small declarative TOML document into a first-class
:class:`~repro.experiments.api.Experiment` that runs through the same
engine (parallel, cached, byte-deterministic) as the paper figures::

    [sweep]
    name = "bf-vs-wf"
    # optional overrides; defaults come from the --scale preset
    # seed = 2018
    # tasksets_per_point = 12
    # utilization = { start = 0.25, stop = 0.75, step = 0.25 }

    [grid]
    cores = [4, 8]
    heuristic = ["best-fit", "worst-fit"]
    ordering = ["rm", "utilization"]
    admission = ["rta"]
    # optional: sweep the *allocation strategy* itself — any spec
    # registered in repro.allocators (see 'repro-hydra allocators')
    allocator = ["hydra", "optimal[branch-bound]", "binpack-best-fit"]
    # optional: sweep the *workload family* too — any spec registered
    # in repro.workloads (see 'repro-hydra workloads')
    workload = ["paper-synthetic", "uunifast", "heavy-security"]

Run it with ``repro-hydra sweep --config scenario.toml``.  Each grid
cell is labelled ``heuristic/ordering/admission`` (prefixed with the
allocator spec when an ``allocator`` axis is present, and with
``workload::`` when a ``workload`` axis is) and reported as an
acceptance + mean-tightness comparison per core count.  Every
combination evaluates the *same* generated task sets at each
utilisation point, so cells are directly comparable.  The ``allocator``
axis is the design space the paper is about: without it the sweep runs
HYDRA (the paper's fixed choice); with it, every named strategy —
heuristics, LP/GP-backed solvers, optimal searches — competes on
identical workloads.  The ``workload`` axis varies the *supply side*:
without it every cell generates with the paper's Sec. IV-B recipe
(labels and cache keys byte-identical to earlier releases); with it,
each named family — UUniFast splitters, period regimes, the
heavy-security profile, the fixed case studies — generates its own
shared task sets per point.  Every family draws them the same way
(:func:`point_workloads`), so ``workload = ["paper-synthetic"]`` draws
exactly the axis-less grid's task sets; only the labels gain the
``paper-synthetic::`` prefix.  The ``singlecore`` strategy implies its
own real-time packing (M−1 cores + a dedicated security core) and the
runner prepares that system automatically.

Scenario sweeps ride the same execution/storage layer as the paper
figures: with ``--workers N`` every sweep of a grid fans out over the
invocation's one fork pool (the ``pool`` executor of its
:class:`~repro.jobs.JobRunner`), and ``--cache-dir`` shards land in
the same :class:`~repro.experiments.store.ResultStore`, so a grid can
be extended axis by axis with only the new cells computing.
"""

from __future__ import annotations

import dataclasses
import math
import tomllib
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Iterator, Mapping, Sequence

import numpy as np

from repro.analysis.schedulability import ADMISSION_TESTS as _ADMISSIONS
from repro.errors import ValidationError
from repro.experiments.api import Experiment, RawRun
from repro.experiments.config import ExperimentScale
from repro.experiments.parallel import register_point_runner
from repro.experiments.reporting import format_table
from repro.model.platform import Platform
from repro.partition.heuristics import HEURISTICS, ORDERINGS
from repro.sim.engine import MAX_DURATION
from repro.taskgen.synthetic import utilization_sweep

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.parallel import SweepSpec
    from repro.model.system import SystemModel
    from repro.taskgen.synthetic import SyntheticWorkload

__all__ = [
    "AllocatorCell",
    "AllocatorComparison",
    "format_allocator_comparison",
    "ScenarioConfig",
    "ScenarioPanel",
    "ScenarioResult",
    "ScenarioExperiment",
    "SCENARIO_KINDS",
    "load_scenario",
    "parse_scenario",
    "build_scenario_experiment",
    "combo_label",
    "combo_system",
    "point_workloads",
    "CellTally",
    "cell_tallies",
]

#: Result families a TOML scenario can request via ``[sweep] kind``.
#: ``"acceptance"`` is the classic acceptance/tightness comparison;
#: ``"detection-latency"`` simulates attack injection and reports
#: detection-time distributions (see repro.experiments.detection).
SCENARIO_KINDS = ("acceptance", "detection-latency")


def combo_label(
    heuristic: str,
    ordering: str,
    admission: str,
    allocator: str | None = None,
    workload: str | None = None,
    policy: str | None = None,
) -> str:
    """Scheme label of one grid cell, e.g. ``best-fit/rm/rta`` —
    prefixed ``hydra|…`` when the sweep has an allocator axis,
    ``uunifast::…`` when it has a workload axis, and suffixed
    ``…@release-after`` when a detection-latency sweep has a policy
    axis."""
    label = f"{heuristic}/{ordering}/{admission}"
    if allocator is not None:
        label = f"{allocator}|{label}"
    if workload is not None:
        label = f"{workload}::{label}"
    if policy is not None:
        label = f"{label}@{policy}"
    return label


@dataclass(frozen=True)
class ScenarioConfig:
    """Validated scenario description (the parsed TOML document).

    ``utilization_*`` and ``tasksets_per_point``/``seed`` of ``None``
    mean "inherit from the scale preset".
    """

    name: str
    cores: tuple[int, ...]
    heuristics: tuple[str, ...]
    orderings: tuple[str, ...]
    admissions: tuple[str, ...]
    #: Allocation strategies (registry specs).  ``allocator_axis`` is
    #: ``False`` when the config never named an ``allocator`` axis: the
    #: sweep then runs HYDRA exactly as before, with unchanged cell
    #: labels and cache keys.
    allocators: tuple[str, ...] = ("hydra",)
    allocator_axis: bool = False
    #: Workload families (registry specs).  ``workload_axis`` is
    #: ``False`` when the config never named a ``workload`` axis: the
    #: sweep then generates with the paper recipe, with unchanged cell
    #: labels and cache keys.  The flag changes labels only: a
    #: one-family ``paper-synthetic`` axis draws the same task sets.
    workloads: tuple[str, ...] = ("paper-synthetic",)
    workload_axis: bool = False
    #: Result family: ``"acceptance"`` (default, unchanged labels and
    #: cache keys) or ``"detection-latency"`` (attack-injection
    #: simulation; see repro.experiments.detection).
    kind: str = "acceptance"
    #: Detection policies (``sim.detection.DETECTION_POLICIES`` specs).
    #: ``policy_axis`` is ``False`` when the config never named a
    #: ``policy`` axis; only meaningful for the detection kind.
    policies: tuple[str, ...] = ("release-after",)
    policy_axis: bool = False
    #: Simulation overrides for the detection kind; ``None`` inherits
    #: ``sim_trials`` (attacks per task set) and ``sim_duration_ms``
    #: from the scale preset.
    sim_trials: int | None = None
    sim_duration: float | None = None
    seed: int | None = None
    tasksets_per_point: int | None = None
    utilization_start: float | None = None
    utilization_stop: float | None = None
    utilization_step: float | None = None
    title: str = ""
    description: str = ""

    def __post_init__(self) -> None:
        if self.kind not in SCENARIO_KINDS:
            raise ValidationError(
                f"invalid scenario config: unknown kind {self.kind!r}; "
                f"expected one of {list(SCENARIO_KINDS)}"
            )
        # SingleCore dedicates one core to security, so it needs M ≥ 2;
        # reject the combination at config time (both the TOML path and
        # the --allocator override construct a ScenarioConfig) instead
        # of letting build_singlecore_system raise mid-sweep.
        if "singlecore" in self.allocators:
            bad = [c for c in self.cores if c < 2]
            if bad:
                raise ValidationError(
                    f"invalid scenario config: allocator 'singlecore' "
                    f"needs at least 2 cores (one is dedicated to "
                    f"security tasks), but the cores axis includes {bad}"
                )

    @property
    def combos(self) -> list[dict[str, str]]:
        """All grid cells, in grid order.

        Each cell is a ``{heuristic, ordering, admission}`` dict, with
        an ``allocator`` key when the sweep has an allocator axis and a
        ``workload`` key when it has a workload axis.
        """
        cells = []
        for wl in self.workloads:
            for alloc in self.allocators:
                for h in self.heuristics:
                    for o in self.orderings:
                        for a in self.admissions:
                            for p in self.policies:
                                cell = {
                                    "heuristic": h, "ordering": o,
                                    "admission": a,
                                }
                                if self.allocator_axis:
                                    cell = {"allocator": alloc, **cell}
                                if self.workload_axis:
                                    cell = {"workload": wl, **cell}
                                if self.policy_axis:
                                    cell = {**cell, "policy": p}
                                cells.append(cell)
                                if not self.policy_axis:
                                    break
        return cells

    def with_allocators(self, allocators: Sequence[str]) -> "ScenarioConfig":
        """A copy sweeping ``allocators`` (the ``--allocator`` override).

        Validates like the TOML axis (see :func:`_override_specs`).
        """
        from repro.allocators import get_allocator_info

        return dataclasses.replace(
            self,
            allocators=_override_specs(
                allocators, "--allocator", get_allocator_info
            ),
            allocator_axis=True,
        )

    def with_workloads(self, workloads: Sequence[str]) -> "ScenarioConfig":
        """A copy sweeping ``workloads`` (the ``--workload`` override).

        Validates like the TOML axis (see :func:`_override_specs`).
        """
        from repro.workloads import get_workload_info

        return dataclasses.replace(
            self,
            workloads=_override_specs(
                workloads, "--workload", get_workload_info
            ),
            workload_axis=True,
        )


def _override_specs(
    specs: Sequence[str], flag: str, lookup: Callable[[str], Any]
) -> tuple[str, ...]:
    """The specs of one command-line axis override, validated like the
    TOML axis: ``lookup`` raises its registry's typed error (listing
    what is known) on an unknown spec, and duplicates are rejected, not
    silently double-counted."""
    seen: set[str] = set()
    for spec in specs:
        lookup(spec)
        if spec in seen:
            raise ValidationError(
                f"invalid scenario config: {flag} {spec!r} "
                f"given more than once"
            )
        seen.add(spec)
    return tuple(specs)


def _require(
    condition: bool, message: str
) -> None:
    if not condition:
        raise ValidationError(f"invalid scenario config: {message}")


def _is_int(value: Any) -> bool:
    """An integer that is not a bool (TOML/JSON ``true`` is an ``int``
    to Python)."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value: Any) -> bool:
    """A finite number that is not a bool.  TOML reads ``1e400`` as
    ``inf``, and an int too large for a float is no number either."""
    if not (_is_int(value) or isinstance(value, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def parse_scenario(document: Mapping[str, Any]) -> ScenarioConfig:
    """Validate a parsed TOML document into a :class:`ScenarioConfig`.

    Every rejection names the offending key and the accepted values, so
    a typo in a config fails before any compute is spent.
    """
    _require(isinstance(document, Mapping), "top level must be a table")
    unknown = set(document) - {"sweep", "grid"}
    _require(
        not unknown,
        f"unknown top-level section(s) {sorted(unknown)}; expected "
        f"[sweep] and [grid]",
    )
    sweep = document.get("sweep", {})
    grid = document.get("grid")
    _require(isinstance(sweep, Mapping), "[sweep] must be a table")
    _require(
        isinstance(grid, Mapping) and len(grid) > 0,
        "missing [grid] section (cores/heuristic/ordering/admission axes)",
    )

    known_sweep = {
        "name", "title", "description", "seed", "tasksets_per_point",
        "utilization", "kind", "sim_trials", "sim_duration",
    }
    unknown = set(sweep) - known_sweep
    _require(
        not unknown,
        f"unknown [sweep] key(s) {sorted(unknown)}; expected "
        f"{sorted(known_sweep)}",
    )
    known_grid = {
        "cores", "heuristic", "ordering", "admission", "allocator",
        "workload", "policy",
    }
    unknown = set(grid) - known_grid
    _require(
        not unknown,
        f"unknown [grid] key(s) {sorted(unknown)}; expected "
        f"{sorted(known_grid)}",
    )

    kind = sweep.get("kind", "acceptance")
    _require(
        kind in SCENARIO_KINDS,
        f"[sweep] kind must be one of {list(SCENARIO_KINDS)}, "
        f"got {kind!r}",
    )
    for key in ("sim_trials", "sim_duration", ):
        _require(
            kind == "detection-latency" or sweep.get(key) is None,
            f"[sweep] {key} is only valid with "
            f"kind = 'detection-latency'",
        )
    _require(
        kind == "detection-latency" or "policy" not in grid,
        "[grid] policy axis requires [sweep] kind = 'detection-latency'",
    )
    sim_trials = sweep.get("sim_trials")
    _require(
        sim_trials is None or (_is_int(sim_trials) and sim_trials >= 1),
        "[sweep] sim_trials must be an integer >= 1",
    )
    sim_duration = sweep.get("sim_duration")
    _require(
        sim_duration is None
        or (_is_number(sim_duration) and sim_duration > 0),
        "[sweep] sim_duration must be a positive number (milliseconds)",
    )
    _require(
        sim_duration is None or sim_duration <= MAX_DURATION,
        f"[sweep] sim_duration must be at most 2**24 = "
        f"{MAX_DURATION:.0f} (the simulator's longest horizon)",
    )

    def axis(key: str, allowed: Sequence[str] | None) -> tuple:
        values = grid.get(key)
        _require(
            isinstance(values, list) and len(values) > 0,
            f"[grid] {key} must be a non-empty list",
        )
        if allowed is not None:
            bad = [v for v in values if v not in allowed]
            _require(
                not bad,
                f"[grid] {key} has unknown value(s) {bad}; expected a "
                f"subset of {list(allowed)}",
            )
        _require(
            len(set(values)) == len(values),
            f"[grid] {key} has duplicate values",
        )
        return tuple(values)

    cores_values = grid.get("cores")
    _require(
        isinstance(cores_values, list) and len(cores_values) > 0,
        "[grid] cores must be a non-empty list of core counts",
    )
    _require(
        all(_is_int(c) and c >= 1 for c in cores_values),
        "[grid] cores entries must be integers >= 1",
    )
    _require(
        len(set(cores_values)) == len(cores_values),
        "[grid] cores has duplicate values",
    )

    name = sweep.get("name", "custom-sweep")
    _require(
        isinstance(name, str) and name != "",
        "[sweep] name must be a non-empty string",
    )
    seed = sweep.get("seed")
    _require(
        seed is None or (_is_int(seed) and seed >= 0),
        "[sweep] seed must be an integer >= 0",
    )
    tasksets = sweep.get("tasksets_per_point")
    _require(
        tasksets is None or (_is_int(tasksets) and tasksets >= 1),
        "[sweep] tasksets_per_point must be an integer >= 1",
    )

    util = sweep.get("utilization", {})
    _require(
        isinstance(util, Mapping),
        "[sweep] utilization must be a table of start/stop/step",
    )
    unknown = set(util) - {"start", "stop", "step"}
    _require(
        not unknown,
        f"unknown [sweep] utilization key(s) {sorted(unknown)}; expected "
        f"start/stop/step",
    )
    for key in ("start", "stop", "step"):
        value = util.get(key)
        _require(
            value is None or (_is_number(value) and 0 < float(value) <= 1),
            f"[sweep] utilization {key} must lie in (0, 1]",
        )
    if util.get("start") is not None and util.get("stop") is not None:
        _require(
            float(util["start"]) <= float(util["stop"]),
            "[sweep] utilization start must not exceed stop",
        )

    allocator_axis = "allocator" in grid
    if allocator_axis:
        from repro.allocators import allocator_names

        allocators = axis("allocator", allocator_names())
    else:
        allocators = ("hydra",)

    workload_axis = "workload" in grid
    if workload_axis:
        from repro.workloads import workload_names

        workloads = axis("workload", workload_names())
    else:
        workloads = ("paper-synthetic",)

    policy_axis = "policy" in grid
    if policy_axis:
        from repro.sim.detection import DETECTION_POLICIES

        policies = axis("policy", DETECTION_POLICIES)
    else:
        policies = ("release-after",)

    return ScenarioConfig(
        name=name,
        title=str(sweep.get("title", "")),
        description=str(sweep.get("description", "")),
        cores=tuple(int(c) for c in cores_values),
        heuristics=axis("heuristic", HEURISTICS),
        orderings=axis("ordering", ORDERINGS),
        admissions=axis("admission", _ADMISSIONS),
        allocators=allocators,
        allocator_axis=allocator_axis,
        workloads=workloads,
        workload_axis=workload_axis,
        kind=kind,
        policies=policies,
        policy_axis=policy_axis,
        sim_trials=sim_trials,
        sim_duration=(
            float(sim_duration) if sim_duration is not None else None
        ),
        seed=seed,
        tasksets_per_point=tasksets,
        utilization_start=(
            float(util["start"]) if util.get("start") is not None else None
        ),
        utilization_stop=(
            float(util["stop"]) if util.get("stop") is not None else None
        ),
        utilization_step=(
            float(util["step"]) if util.get("step") is not None else None
        ),
    )


def read_toml(path: str | Path, noun: str) -> dict[str, Any]:
    """The TOML document at ``path``.  A file that cannot be read, or
    is not UTF-8 TOML, is a typed error naming the ``noun`` config."""
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise ValidationError(f"cannot read {noun} config: {exc}") from None
    try:
        return tomllib.loads(raw.decode())
    except (tomllib.TOMLDecodeError, UnicodeDecodeError) as exc:
        raise ValidationError(f"{path} is not valid TOML: {exc}") from None


def load_scenario(path: str | Path) -> ScenarioConfig:
    """Parse and validate a scenario TOML file."""
    return parse_scenario(read_toml(path, "scenario"))


# -- point runner ------------------------------------------------------------


def combo_system(
    platform: Platform,
    workload: "SyntheticWorkload",
    combo: Mapping[str, str],
    systems: dict[tuple, "SystemModel | None"],
) -> "SystemModel | None":
    """The system ``combo``'s allocator runs on for one task set.

    The ``singlecore`` strategy implies its own system shape — real-time
    tasks packed onto ``M−1`` cores, the last core dedicated to security
    (:func:`~repro.core.singlecore.build_singlecore_system`); every
    other strategy gets the all-cores partition
    (:func:`~repro.experiments.runner.build_hydra_system`).  Either is
    built with the combo's heuristic/ordering/admission and memoised in
    ``systems`` (one dict per task set) under ``(singlecore?,
    heuristic, ordering, admission)``, so combos differing only in the
    allocator share one partition.  ``None`` when the real-time tasks
    do not fit.

    For the heuristics in
    :data:`~repro.partition.heuristics.PREFIX_HEURISTICS` the
    SingleCore shape is read off the all-cores one, which is then
    partitioned once for both: the ``M−1``-core pack equals the
    all-cores partition when that leaves core ``M−1`` empty, and fails
    otherwise.  Worst-fit opens empty cores first, so its SingleCore
    shape is packed on its own.
    """
    key = (
        combo.get("allocator", "hydra") == "singlecore",
        combo["heuristic"], combo["ordering"], combo["admission"],
    )
    if key not in systems:
        from repro.core.singlecore import build_singlecore_system
        from repro.experiments.runner import build_hydra_system
        from repro.partition.heuristics import PREFIX_HEURISTICS

        singlecore, heuristic, ordering, admission = key
        if (
            singlecore
            and heuristic in PREFIX_HEURISTICS
            and platform.num_cores >= 2
        ):
            shared = combo_system(
                platform, workload, {**combo, "allocator": "hydra"}, systems
            )
            last = platform.num_cores - 1
            systems[key] = (
                shared
                if shared is not None and not shared.rt_partition.tasks_on(last)
                else None
            )
        elif singlecore:
            systems[key] = build_singlecore_system(
                platform,
                workload.rt_tasks,
                workload.security_tasks,
                heuristic=heuristic,
                admission=admission,
                ordering=ordering,
            )
        else:
            systems[key] = build_hydra_system(
                workload,
                heuristic=heuristic,
                admission=admission,
                ordering=ordering,
            )
    return systems[key]


def point_workloads(
    platform: Platform,
    combos: Sequence[Mapping[str, str]],
    tasksets: int,
    utilization: float,
    rng: np.random.Generator,
) -> Iterator[tuple[str, "SyntheticWorkload"]]:
    """The task sets of one grid point, as ``(family, workload)`` pairs.

    Each workload family the ``combos`` name (``"paper-synthetic"``
    for combos without a ``workload`` key), in grid order, draws its
    ``tasksets`` instances from the point's stream, one
    :meth:`~repro.workloads.api.WorkloadGenerator.generate` call each,
    before the next family draws any.  So a one-family axis draws the
    axis-less grid's task sets, and appending a family to the axis
    never moves an earlier family's (as appending utilisation points
    keeps earlier streams).  Pairs are yielded as they are drawn: a
    caller that draws more per task set, such as the detection
    runner's attack instants, draws it before the next task set.
    """
    from repro.workloads import get_workload

    families = dict.fromkeys(
        combo.get("workload", "paper-synthetic") for combo in combos
    )
    for spec in families:
        generator = get_workload(spec)
        for _ in range(tasksets):
            yield spec, generator.generate(platform, utilization, rng)


@register_point_runner("scenario")
def run_scenario_point(
    point: Mapping[str, Any],
    params: Mapping[str, Any],
    rng: np.random.Generator,
) -> dict[str, Any]:
    """Acceptance/tightness for every grid combo — (allocator,)
    heuristic, ordering, admission — on shared task sets at one
    utilisation point.

    The payload is ``{"cells": {label: [tightness, ...]}}``: per combo
    label, one entry per task set in generation order — the
    allocation's mean tightness, or ``None`` when the combo rejects the
    task set (its real-time tasks do not fit, or its allocator finds no
    schedulable allocation; security tasks have real-time constraints
    too, paper footnote 4).  Keeping the task sets apart lets a reader
    pair schemes on the same task set; :func:`cell_tallies` is the one
    reader of this format.

    The allocation strategy is resolved through the
    :mod:`repro.allocators` registry (``"hydra"`` when the sweep has no
    allocator axis) and the task sets come from
    :func:`point_workloads`.  Every combo sharing a workload family
    evaluates the *same* generated task sets, and every combo sharing
    a system shape the same system (:func:`combo_system`).
    """
    from repro.allocators import get_allocator

    platform = Platform(int(params["cores"]))
    combos = [dict(c) for c in params["combos"]]
    allocators = {
        spec: get_allocator(spec)
        for spec in {c.get("allocator", "hydra") for c in combos}
    }
    cells: dict[str, list[float | None]] = {
        combo_label(**c): [] for c in combos
    }
    for wl_spec, workload in point_workloads(
        platform,
        combos,
        int(params["tasksets_per_point"]),
        float(point["utilization"]),
        rng,
    ):
        systems: dict[tuple, SystemModel | None] = {}
        for combo in combos:
            if combo.get("workload", "paper-synthetic") != wl_spec:
                continue
            cell = cells[combo_label(**combo)]
            system = combo_system(platform, workload, combo, systems)
            if system is None:
                cell.append(None)
                continue
            spec = combo.get("allocator", "hydra")
            allocation = allocators[spec].allocate(system)
            cell.append(
                allocation.mean_tightness()
                if allocation.schedulable else None
            )
    return {"cells": cells}


@dataclass(frozen=True)
class CellTally:
    """What one payload cell says about one scheme at one point."""

    accepted: int
    total: int
    tightness_sum: float

    @property
    def acceptance(self) -> float:
        """Accepted fraction of the task sets (0 when there are none)."""
        return self.accepted / self.total if self.total else 0.0

    @property
    def mean_tightness(self) -> float:
        """Mean tightness over the accepted task sets (0 when none)."""
        return self.tightness_sum / self.accepted if self.accepted else 0.0


def cell_tallies(
    payload: Mapping[str, Any], *labels: str
) -> tuple[CellTally, ...]:
    """The tallies of the ``labels`` cells of one ``scenario`` payload.

    A task set counts as accepted only when every named cell accepts
    it: one label gives that scheme's own tallies, several give tallies
    paired on the task sets all of them accept (the quality study's
    "both schemes accept").  Each sum adds the accepted entries in
    task-set order with ``+=``, so the tallies do not depend on the
    Python version: the builtin ``sum`` of floats compensates on
    Python >= 3.12 and moves the last bits.
    """
    columns = [payload["cells"][label] for label in labels]
    accepted = 0
    sums = [0.0] * len(columns)
    for row in zip(*columns):
        if any(tightness is None for tightness in row):
            continue
        accepted += 1
        for index, tightness in enumerate(row):
            sums[index] += tightness
    total = len(columns[0])
    return tuple(CellTally(accepted, total, s) for s in sums)


# -- comparison results ------------------------------------------------------


@dataclass(frozen=True)
class AllocatorCell:
    """One (scheme, utilisation) cell of an acceptance comparison."""

    scheme: str
    utilization: float
    acceptance: float
    mean_tightness: float  # mean over schedulable task sets (ω = 1)


@dataclass(frozen=True)
class AllocatorComparison:
    """Acceptance and mean tightness of every scheme at every
    utilisation point of one platform size."""

    cells: tuple[AllocatorCell, ...]
    cores: int
    tasksets_per_point: int

    def schemes(self) -> list[str]:
        seen: list[str] = []
        for cell in self.cells:
            if cell.scheme not in seen:
                seen.append(cell.scheme)
        return seen

    def series(self, scheme: str) -> list[AllocatorCell]:
        return [c for c in self.cells if c.scheme == scheme]


def _cells_from_payloads(
    spec: "SweepSpec",
    payloads,
    schemes: list[str],
) -> tuple[AllocatorCell, ...]:
    """Decode per-point ``scenario`` payloads into comparison cells."""
    cells: list[AllocatorCell] = []
    for point, payload in zip(spec.points, payloads):
        for scheme in schemes:
            (tally,) = cell_tallies(payload, scheme)
            cells.append(
                AllocatorCell(
                    scheme=scheme,
                    utilization=float(point["utilization"]),
                    acceptance=tally.acceptance,
                    mean_tightness=tally.mean_tightness,
                )
            )
    return tuple(cells)


def format_allocator_comparison(
    comparison: AllocatorComparison, title: str
) -> str:
    rows = []
    for cell in comparison.cells:
        rows.append(
            (
                f"{cell.utilization:.3f}",
                cell.scheme,
                f"{cell.acceptance:.3f}",
                f"{cell.mean_tightness:.3f}",
            )
        )
    return format_table(
        ["U_total", "scheme", "acceptance", "mean tightness"],
        rows,
        title=f"{title} ({comparison.cores} cores, "
              f"{comparison.tasksets_per_point} task sets/point)",
    )


# -- the experiment ----------------------------------------------------------


@dataclass(frozen=True)
class ScenarioPanel:
    """One core count's comparison across all grid cells."""

    cores: int
    comparison: AllocatorComparison


@dataclass(frozen=True)
class ScenarioResult:
    """All panels of one scenario sweep."""

    name: str
    scale: str
    panels: tuple[ScenarioPanel, ...] = field(default_factory=tuple)


class ScenarioExperiment(Experiment):
    """A TOML-defined design-space sweep on the experiment protocol.

    Not registered by name — the CLI's ``sweep`` subcommand builds one
    from ``--config``; programmatic callers construct it from a
    :class:`ScenarioConfig` (see :func:`load_scenario`).  Fixed grids
    register as subclasses — the comparison ablations in
    :mod:`repro.experiments.ablations` — or run one per scale, as Fig. 2
    and the quality study do (:func:`repro.experiments.fig2.fig2_grid`).
    """

    version = 1
    tags = ("scenario",)
    columns = (
        "cores", "utilization", "scheme", "acceptance", "mean_tightness",
    )
    #: Scenario kind this class consumes; subclasses override.  Guards
    #: against running a detection-latency config through the
    #: acceptance aggregation (use build_scenario_experiment).
    scenario_kind = "acceptance"

    def __init__(self, config: ScenarioConfig) -> None:
        if config.kind != self.scenario_kind:
            raise ValidationError(
                f"{type(self).__name__} handles kind "
                f"{self.scenario_kind!r}, got {config.kind!r}; build via "
                f"build_scenario_experiment()"
            )
        self.config = config
        self.name = f"sweep:{config.name}"
        self.title = config.title or f"Scenario sweep '{config.name}'"
        self.description = config.description

    def _utilizations(self, scale: ExperimentScale, cores: int) -> list[float]:
        cfg = self.config
        start = (
            cfg.utilization_start
            if cfg.utilization_start is not None
            else scale.utilization_start
        )
        stop = (
            cfg.utilization_stop
            if cfg.utilization_stop is not None
            else scale.utilization_stop
        )
        step = (
            cfg.utilization_step
            if cfg.utilization_step is not None
            else scale.utilization_step
        )
        # A partial override can invert the range only once combined
        # with the scale preset, so re-check the *effective* grid here
        # and name the config — not deep inside utilization_sweep.
        if not (0.0 < start <= stop <= 1.0):
            raise ValidationError(
                f"invalid scenario config: effective utilization range "
                f"start={start} stop={stop} (combined with scale "
                f"{scale.name!r}) must satisfy 0 < start <= stop <= 1"
            )
        return list(
            utilization_sweep(
                Platform(cores),
                step_fraction=step,
                start_fraction=start,
                stop_fraction=stop,
            )
        )

    def sweeps(self, scale: ExperimentScale) -> list["SweepSpec"]:
        from repro.experiments.parallel import SweepSpec

        cfg = self.config
        seed = cfg.seed if cfg.seed is not None else scale.seed
        tasksets = (
            cfg.tasksets_per_point
            if cfg.tasksets_per_point is not None
            else scale.tasksets_per_point
        )
        return [
            SweepSpec(
                kind="scenario",
                seed=seed + cores,
                points=tuple(
                    {"utilization": u}
                    for u in self._utilizations(scale, cores)
                ),
                params={
                    "cores": cores,
                    "tasksets_per_point": tasksets,
                    "combos": cfg.combos,
                },
            )
            for cores in cfg.cores
        ]

    def aggregate_domain(self, raw: RawRun) -> ScenarioResult:
        labels = [combo_label(**c) for c in self.config.combos]
        panels = []
        for result in raw.sweeps:
            tasksets = int(result.spec.params["tasksets_per_point"])
            panels.append(
                ScenarioPanel(
                    cores=int(result.spec.params["cores"]),
                    comparison=AllocatorComparison(
                        cells=_cells_from_payloads(
                            result.spec, result.payloads, labels
                        ),
                        cores=int(result.spec.params["cores"]),
                        tasksets_per_point=tasksets,
                    ),
                )
            )
        return ScenarioResult(
            name=self.config.name,
            scale=raw.scale.name,
            panels=tuple(panels),
        )

    def render_domain(self, domain: ScenarioResult) -> str:
        axes = "heuristic/ordering/admission"
        if self.config.allocator_axis:
            axes = f"allocator|{axes}"
        if self.config.workload_axis:
            axes = f"workload::{axes}"
        blocks = [
            format_allocator_comparison(
                panel.comparison,
                f"Scenario '{domain.name}' — {axes} grid",
            )
            for panel in domain.panels
        ]
        return "\n\n".join(blocks)

    def table_rows(self, domain: ScenarioResult) -> list[Sequence[Any]]:
        return [
            (panel.cores, c.utilization, c.scheme, c.acceptance,
             c.mean_tightness)
            for panel in domain.panels
            for c in panel.comparison.cells
        ]


def build_scenario_experiment(config: ScenarioConfig) -> Experiment:
    """The experiment class matching ``config.kind``.

    The single entry point the CLI's ``sweep`` subcommand and the job
    runner use, so a ``kind = "detection-latency"`` TOML resolves to
    the same experiment whether it runs directly or through the job
    service (byte-identical results either way).
    """
    if config.kind == "detection-latency":
        from repro.experiments.detection import DetectionScenarioExperiment

        return DetectionScenarioExperiment(config)
    return ScenarioExperiment(config)
