"""Ablation study configuration: TOML in, validated config out.

An ablation document names a *baseline* design point (one component
per axis) and the axes to ablate; the run set is then derived — the
baseline plus one swap-one variant per registered alternative on every
named axis — so adding a component to a registry automatically widens
every ablation study that touches its axis::

    [ablation]
    name = "paper-baseline"
    # optional: restrict which axes are ablated (default: all five)
    # axes = ["heuristic", "ordering", "admission", "allocator", "workload"]

    [baseline]
    cores = [2]
    # optional; defaults are the paper's design point
    # heuristic = "best-fit"
    # ordering  = "utilization"
    # admission = "rta"
    # allocator = "hydra"
    # workload  = "paper-synthetic"

    [sweep]
    # optional overrides, exactly as in a scenario sweep document;
    # defaults come from the --scale preset
    # seed = 2018
    # tasksets_per_point = 6
    # utilization = { start = 0.25, stop = 0.75, step = 0.25 }

Parsing deliberately *reuses* :func:`repro.experiments.scenario.parse_scenario`:
the baseline is assembled into a one-cell scenario document and pushed
through the scenario validator, so every axis-membership check, cores
check, and utilization-range check — and their exact typed error
messages — are shared with ``repro-hydra sweep`` instead of
reimplemented.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping, Sequence

from repro.errors import ValidationError
from repro.experiments.scenario import (
    ScenarioConfig,
    parse_scenario,
    read_toml,
)

__all__ = [
    "AXES",
    "AblationConfig",
    "axis_components",
    "parse_ablation",
    "load_ablation",
]

#: The ablatable design axes, in the fixed study order (this order —
#: not document order — determines run-set generation, so run ids are
#: stable across cosmetically different configs).
AXES = ("heuristic", "ordering", "admission", "allocator", "workload")

#: Paper design point (Sec. IV): best-fit partitioning, utilisation
#: ordering, exact RTA admission, the HYDRA allocator, the synthetic
#: workload recipe.
_BASELINE_DEFAULTS = {
    "heuristic": "best-fit",
    "ordering": "utilization",
    "admission": "rta",
    "allocator": "hydra",
    "workload": "paper-synthetic",
}


def axis_components(axis: str) -> tuple[str, ...]:
    """Every registered component on ``axis``, in registry order.

    This is the swap-one candidate pool — growing a registry grows the
    ablation run set with no config change.
    """
    if axis == "heuristic":
        from repro.partition.heuristics import HEURISTICS

        return tuple(HEURISTICS)
    if axis == "ordering":
        from repro.partition.heuristics import ORDERINGS

        return tuple(ORDERINGS)
    if axis == "admission":
        from repro.analysis.schedulability import ADMISSION_TESTS

        return tuple(ADMISSION_TESTS)
    if axis == "allocator":
        from repro.allocators import allocator_names

        return tuple(allocator_names())
    if axis == "workload":
        from repro.workloads import workload_names

        return tuple(workload_names())
    raise ValidationError(
        f"unknown ablation axis {axis!r}; known axes: {list(AXES)}"
    )


@dataclass(frozen=True)
class AblationConfig:
    """Validated ablation study description.

    ``baseline`` is a one-cell :class:`ScenarioConfig` (both the
    allocator and workload axes explicit, so every run's cell labels
    and cache keys name the full design point); ``axes`` are the axes
    whose registered alternatives get a swap-one variant each.
    """

    name: str
    axes: tuple[str, ...]
    baseline: ScenarioConfig
    title: str = ""
    description: str = ""

    def baseline_component(self, axis: str) -> str:
        """The baseline's component on ``axis``."""
        values = {
            "heuristic": self.baseline.heuristics,
            "ordering": self.baseline.orderings,
            "admission": self.baseline.admissions,
            "allocator": self.baseline.allocators,
            "workload": self.baseline.workloads,
        }.get(axis)
        if values is None:
            raise ValidationError(
                f"unknown ablation axis {axis!r}; known axes: {list(AXES)}"
            )
        return values[0]

    def with_axes(self, axes: Sequence[str]) -> "AblationConfig":
        """A copy ablating only ``axes`` (the CLI ``--axis`` filter).

        Validates like the TOML key: every axis must be known and
        duplicates are rejected, not silently double-counted.  The
        result keeps the canonical :data:`AXES` order regardless of
        the order given.
        """
        _validate_axes(axes, source="--axis")
        return dataclasses.replace(
            self, axes=tuple(a for a in AXES if a in set(axes))
        )


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValidationError(f"invalid ablation config: {message}")


def _validate_axes(axes: Sequence[str], source: str) -> None:
    seen: set[str] = set()
    for axis in axes:
        if axis not in AXES:
            raise ValidationError(
                f"invalid ablation config: {source} axis {axis!r} is "
                f"unknown; expected a subset of {list(AXES)}"
            )
        if axis in seen:
            raise ValidationError(
                f"invalid ablation config: {source} axis {axis!r} "
                f"given more than once"
            )
        seen.add(axis)
    _require(bool(seen), f"{source} needs at least one axis")


def parse_ablation(document: Mapping[str, Any]) -> AblationConfig:
    """Validate a parsed TOML document into an :class:`AblationConfig`.

    Every rejection names the offending key and the accepted values.
    Baseline component membership, cores, and ``[sweep]`` overrides
    are validated by :func:`~repro.experiments.scenario.parse_scenario`
    on the assembled one-cell scenario document, so their error
    wording is identical to the sweep path.
    """
    _require(isinstance(document, Mapping), "top level must be a table")
    unknown = set(document) - {"ablation", "baseline", "sweep"}
    _require(
        not unknown,
        f"unknown top-level section(s) {sorted(unknown)}; expected "
        f"[ablation], [baseline] and optionally [sweep]",
    )
    ablation = document.get("ablation", {})
    _require(isinstance(ablation, Mapping), "[ablation] must be a table")
    known = {"name", "title", "description", "axes"}
    unknown = set(ablation) - known
    _require(
        not unknown,
        f"unknown [ablation] key(s) {sorted(unknown)}; expected "
        f"{sorted(known)}",
    )
    name = ablation.get("name", "ablation")
    _require(
        isinstance(name, str) and name != "",
        "[ablation] name must be a non-empty string",
    )
    axes_value = ablation.get("axes")
    if axes_value is None:
        axes = AXES
    else:
        _require(
            isinstance(axes_value, list)
            and all(isinstance(a, str) for a in axes_value),
            "[ablation] axes must be a list of axis names",
        )
        _validate_axes(axes_value, source="[ablation] axes")
        axes = tuple(a for a in AXES if a in set(axes_value))

    baseline = document.get("baseline")
    _require(
        isinstance(baseline, Mapping),
        "missing [baseline] section (cores plus one component per axis)",
    )
    known = {"cores"} | set(AXES)
    unknown = set(baseline) - known
    _require(
        not unknown,
        f"unknown [baseline] key(s) {sorted(unknown)}; expected "
        f"{sorted(known)}",
    )
    components = {}
    for axis in AXES:
        value = baseline.get(axis, _BASELINE_DEFAULTS[axis])
        _require(
            isinstance(value, str),
            f"[baseline] {axis} must be a single component name (string)",
        )
        components[axis] = value

    sweep = document.get("sweep", {})
    _require(isinstance(sweep, Mapping), "[sweep] must be a table")
    unknown = set(sweep) - {"seed", "tasksets_per_point", "utilization"}
    _require(
        not unknown,
        f"unknown [sweep] key(s) {sorted(unknown)}; expected "
        f"['seed', 'tasksets_per_point', 'utilization'] (name/title/"
        f"description live in [ablation])",
    )

    # Assemble the baseline as a one-cell scenario document and let the
    # scenario validator do membership / cores / utilization checks.
    scenario_document = {
        "sweep": {"name": name, **{k: sweep[k] for k in sweep}},
        "grid": {
            "cores": baseline.get("cores"),
            "heuristic": [components["heuristic"]],
            "ordering": [components["ordering"]],
            "admission": [components["admission"]],
            "allocator": [components["allocator"]],
            "workload": [components["workload"]],
        },
    }
    baseline_config = parse_scenario(scenario_document)
    return AblationConfig(
        name=name,
        axes=axes,
        baseline=baseline_config,
        title=str(ablation.get("title", "")),
        description=str(ablation.get("description", "")),
    )


def load_ablation(path: str | Path) -> AblationConfig:
    """Parse and validate an ablation TOML file."""
    return parse_ablation(read_toml(path, "ablation"))
